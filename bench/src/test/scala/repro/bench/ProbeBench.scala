package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{McosGenerator, WindowSpec}

/** Diagnostic (not part of the reproduction tables): state-space and
  * intersection-count profile per method, then each method's Java-serialized
  * state size at the end of the feed (-1 if it cannot be written on a thread
  * with the default stack size).
  */
class ProbeBench extends AnyFunSuite {
  test("probe counters") {
    val spec = WindowSpec(300, 240)
    for (name <- Seq("V1", "D2", "M1", "M2")) {
      val s = BenchHarness.stream(name)
      val stateBytes = for (m <- Seq("NAIVE", "MFS", "SSG")) yield {
        val gen = McosGenerator(m, spec)
        val r = BenchHarness.runGenerator(s, gen)
        println(f"$name%-3s $m%-6s ms=${r.ms}%9.1f endStates=${r.states}%6d inters=${r.intersections}%10d results=${r.results}%8d")
        s"$m=${BenchHarness.serializedBytes(gen)}"
      }
      println(s"$name stateBytes ${stateBytes.mkString(" ")}")
    }
  }
}
