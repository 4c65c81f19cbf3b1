package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.WindowSpec
import repro.query.CnfQuery
import BenchHarness._

/** Figure 9 — evaluation-result pruning (§5.3) on ≥-only query workloads:
  * 100 queries, minimum threshold n_min varied 1..9, real-data profiles.
  * Methods: NAIVE_E/MFS_E/SSG_E (no pruning) vs MFS_O/SSG_O (states failing
  * all queries terminated at creation). Expected shape: *_E flat in n_min;
  * *_O collapse as n_min grows — the paper reports >100x at n_min=9 — with
  * SSG_O best overall.
  */
class Fig9NminBench extends AnyFunSuite {
  private val feeds = Seq("D1", "D2", "M1", "M2")

  test("Figure 9: varying n_min in >= queries") {
    val t = sweep("Figure 9: time (ms) vs n_min, 100 >=-only queries  [w=300, d=240]", "n_min",
        Seq("NAIVE_E", "MFS_E", "SSG_E", "MFS_O", "SSG_O"),
        Seq("NAIVE_E" -> "MFS_O", "NAIVE_E" -> "SSG_O"), feeds, _ => Seq(1, 3, 5, 7, 9),
        note = "Paper shape: *_O methods collapse as n_min grows (>100x at n_min=9).") {
      (name, nMin, m) => runPipeline(stream(name), WindowSpec(300, 240), m.takeWhile(_ != '_'),
        CnfQuery.geQueries(100, nMin, seed = 99 + nMin), pruneByEval = m.endsWith("_O"))
    }

    feeds.foreach { name =>
      // At n_min=9 pruning must be dramatic (paper: >100x vs NAIVE). Our M2
      // profile averages ~10 persons per frame (Table 6: Obj/F=11.59,
      // person-heavy), so many MCOSs still satisfy thresholds of 9-11 and
      // its collapse is shallower — a data property, not an algorithmic one.
      val naive = t.ms(name, "NAIVE_E").last
      val mfsO = t.ms(name, "MFS_O").last
      val ssgO = t.ms(name, "SSG_O").last
      val floor = if (name == "M2") 3.0 else 10.0
      assert(mfsO < naive / floor, s"$name: MFS_O must be >${floor}x faster at n_min=9")
      assert(ssgO < naive / floor, s"$name: SSG_O must be >${floor}x faster at n_min=9")
      // Pruned variants never slower than their unpruned baselines at high n_min.
      assert(mfsO <= t.ms(name, "MFS_E").last * 1.1)
      assert(ssgO <= t.ms(name, "SSG_E").last * 1.1)
    }
  }
}
