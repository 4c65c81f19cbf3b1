package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.WindowSpec
import BenchHarness._

/** Figure 4 — MCOS generation time vs total number of frames processed,
  * default window w=300, duration d=240 (§6.2). Expected shape: all methods
  * grow with frames; MFS/SSG under NAIVE; MFS ≲ SSG on the low-churn
  * VisualRoad feeds (V1,V2), SSG ahead on the churnier real feeds. A second
  * table gives the end states and intersections of the full-length cells.
  */
class Fig4FramesBench extends AnyFunSuite {
  test("Figure 4: varying the total number of frames") {
    val t = sweep("Figure 4: time (ms) vs #frames  [w=300, d=240]", "Frames",
        methods, Seq("NAIVE" -> "MFS", "NAIVE" -> "SSG"), datasets,
        name => { val len = stream(name).length; Seq(400, 800, 1200, len).distinct.filter(_ <= len) },
        note = "Paper shape: monotone growth; MFS and SSG both under NAIVE " +
               "(paper max ~3-3.5x); MFS ahead on V1/V2, SSG ahead on D1-M2.") {
      (name, n, m) => runMcos(stream(name), WindowSpec(300, 240), m, maxFrames = n)
    }
    printTable("Figure 4: end states / intersections at full length  [w=300, d=240]", "Dataset" +: methods,
      datasets.map(name => name +: methods.map(t(name, _).last).map(c => s"${c.states} / ${c.intersections}")))

    // Shape assertions on the full-length runs.
    datasets.foreach { name =>
      val Seq(naive, mfs, ssg) = methods.map(t(name, _).last)
      assert(mfs.ms < naive.ms, s"$name: MFS must beat NAIVE")
      assert(ssg.ms < naive.ms * 1.05, s"$name: SSG must not lose to NAIVE")
      assert(mfs.states <= naive.states, s"$name: MFS must maintain fewer states")
      assert(ssg.intersections <= mfs.intersections,
        s"$name: SSG must compute fewer intersections than MFS")
    }
  }
}
