package repro.bench

import java.io.ByteArrayOutputStream
import org.scalatest.funsuite.AnyFunSuite
import BenchHarness._

/** The sweep engine behind Figs 4–9, driven by a stub that records its calls. */
class SweepSpec extends AnyFunSuite {
  test("sweep runs each cell once in dataset → value → column order and prints one row per value") {
    val calls = Vector.newBuilder[(String, Int, String)]
    val factor = Map("A" -> 2.0, "B_E" -> 1.0, "B_O" -> 4.0)
    val out = new ByteArrayOutputStream()
    val t = Console.withOut(out) {
      sweep("T", "v", Seq("A", "B_E", "B_O"), Seq("A" -> "B_E", "B_E" -> "B_O"), Seq("X", "Y"),
          d => if (d == "X") Seq(1, 2) else Seq(3), "note") { (d, v, c) =>
        calls += ((d, v, c)); RunStats(v * factor(c), v, 0L, 0L)
      }
    }
    assert(calls.result() == (for ((d, v) <- Seq("X" -> 1, "X" -> 2, "Y" -> 3); c <- Seq("A", "B_E", "B_O"))
      yield (d, v, c)))
    assert(t.ms("X", "A") == Vector(2.0, 4.0) && t.ms("X", "B_O") == Vector(4.0, 8.0))
    assert(t("Y", "B_E").map(_.states) == Vector(3))
    val table = out.toString.linesIterator.map(_.trim.split("\\s+").toSeq).toVector
    assert(table.contains(Seq("Dataset", "v", "A", "B_E", "B_O", "A/B", "B/B_O")))
    assert(table.filter(r => r.head == "X" || r.head == "Y") == Seq(
      Seq("X", "1", "2.0", "1.0", "4.0", "2.00x", "0.25x"),
      Seq("X", "2", "4.0", "2.0", "8.0", "2.00x", "0.25x"),
      Seq("Y", "3", "6.0", "3.0", "12.0", "2.00x", "0.25x")))
  }
}
