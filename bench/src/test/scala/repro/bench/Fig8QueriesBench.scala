package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.WindowSpec
import repro.query.CnfQuery
import BenchHarness._

/** Figure 8 — MCOS generation + query evaluation time vs number of CNF
  * queries (10..50), w=300, d=240. Expected shape: flat in #queries (the
  * inverted-index evaluation is negligible next to state maintenance);
  * MFS/SSG >2x under NAIVE (paper Fig 8a), SSG ahead of MFS on the
  * denser feed (paper Fig 8b, overall speedup >3x).
  */
class Fig8QueriesBench extends AnyFunSuite {
  // The paper plots two datasets; one static-camera, one moving-camera.
  private val feeds = Seq("D2", "M2")
  private val columns = Seq("NAIVE_E", "MFS_E", "SSG_E")

  test("Figure 8: varying the number of queries") {
    val t = sweep("Figure 8: gen+eval time (ms) vs #queries  [w=300, d=240]", "#Q",
        columns, Seq("NAIVE_E" -> "MFS_E", "NAIVE_E" -> "SSG_E"), feeds, _ => Seq(10, 20, 30, 40, 50),
        note = "Paper shape: flat in #queries — query evaluation cost is negligible " +
               "next to state maintenance.") {
      (name, n, m) => runPipeline(stream(name), WindowSpec(300, 240), m.stripSuffix("_E"),
        CnfQuery.randomQueries(n, seed = 1234 + n), pruneByEval = false)
    }

    for (name <- feeds; m <- columns; ts = t.ms(name, m))
      assert(ts.max / ts.min < 2.0, s"$name/$m: time should be flat in #queries: $ts")
    feeds.foreach { name =>
      assert(t.ms(name, "MFS_E").sum < t.ms(name, "NAIVE_E").sum,
        s"$name: MFS must beat NAIVE")
      assert(t.ms(name, "SSG_E").sum < t.ms(name, "NAIVE_E").sum * 1.05,
        s"$name: SSG must not lose to NAIVE")
    }
  }
}
