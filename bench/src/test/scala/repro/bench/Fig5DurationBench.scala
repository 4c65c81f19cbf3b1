package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.WindowSpec
import BenchHarness._

/** Figure 5 — MCOS generation time vs duration threshold d ∈ [180, 270] at
  * w = 300. Expected shape: essentially flat in d (d only gates the Result
  * State Set; all states are maintained regardless), MFS/SSG under NAIVE
  * (paper: MFS up to >3x on V2, SSG up to ~3.5x on M2).
  */
class Fig5DurationBench extends AnyFunSuite {
  test("Figure 5: varying duration d") {
    val t = sweep("Figure 5: time (ms) vs duration d  [w=300]", "d",
        methods, Seq("NAIVE" -> "MFS", "NAIVE" -> "SSG"), datasets, _ => Seq(180, 210, 240, 270),
        note = "Paper shape: flat in d; MFS/SSG consistently under NAIVE.") {
      (name, d, m) => runMcos(stream(name), WindowSpec(300, d), m)
    }

    // Flatness: per dataset×method, max/min across d stays within 2x.
    for (name <- datasets; m <- methods; ts = t.ms(name, m))
      assert(ts.max / ts.min < 2.0, s"$name/$m: time should be stable in d, got $ts")
    // MFS/SSG under NAIVE at the default d for every dataset.
    datasets.foreach { name =>
      val n = t.ms(name, "NAIVE").sum
      assert(t.ms(name, "MFS").sum < n, s"$name: MFS total must beat NAIVE")
      assert(t.ms(name, "SSG").sum < n * 1.05, s"$name: SSG must not lose to NAIVE")
    }
  }
}
