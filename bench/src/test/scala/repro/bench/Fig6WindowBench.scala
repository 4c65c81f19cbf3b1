package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.WindowSpec
import BenchHarness._

/** Figure 6 — MCOS generation time vs window size w at fixed d = 240.
  * Expected shape: all methods grow with w (more states in flight); the
  * penalty hits NAIVE/MFS hardest (they intersect every state every frame),
  * and SSG gains most on the moving-camera feeds M1/M2 (paper: 40% faster
  * than MFS on M1, ~2x on M2 at large w).
  */
class Fig6WindowBench extends AnyFunSuite {
  private val windows = Seq(240, 300, 360, 420)

  test("Figure 6: varying window size w") {
    val t = sweep("Figure 6: time (ms) vs window size w  [d=240]", "w",
        methods, Seq("MFS" -> "SSG"), datasets, _ => windows,
        note = "Paper shape: growth with w; SSG benefits most on moving-camera M1/M2.") {
      (name, w, m) => runMcos(stream(name), WindowSpec(w, 240), m)
    }

    // No collapse with w (single-run cells carry ~±25% JIT/GC noise, so this
    // is a loose floor; the table above is the reproduced artifact).
    datasets.foreach { name =>
      val ts = t.ms(name, "NAIVE")
      assert(ts.last > ts.head * 0.6, s"$name: NAIVE should not shrink with w: $ts")
    }
    // On moving-camera feeds, SSG beats MFS at the largest window.
    Seq("M1", "M2").foreach { name =>
      assert(t.ms(name, "SSG").last < t.ms(name, "MFS").last,
        s"$name: SSG must beat MFS at w=${windows.last}")
    }
  }
}
