package repro.query

import scala.collection.mutable
import repro.core.{McosGenerator, McosResult, ObjSet, WindowSpec}
import repro.core.ObjSet.ObjSet

/** One query match: at frame `fid`, query `qid` is TRUE on the MCOS `objects`
  * whose window frame set is `frames` (the paper's produced result, §5.2).
  */
final case class QueryMatch(fid: Int, qid: Int, objects: ObjSet, frames: Vector[Int])

/** The full §5 evaluation pipeline: MCOS generation feeding CNFEvalE.
  *
  * Variants map to the paper's §6.3 method names via `method` ∈
  * {NAIVE, MFS, SSG} and `pruneByEval`:
  *
  *  - `NAIVE_E` / `MFS_E` / `SSG_E` — `pruneByEval = false`: every satisfied
  *    MCOS is aggregated by class and pushed through the inverted index.
  *  - `MFS_O` / `SSG_O` — `pruneByEval = true`: additionally, when the query
  *    set is ≥-only (Proposition 1), a freshly generated state whose MCOS
  *    fails every query is terminated — never materialized — shrinking the
  *    state space itself. Every new state is tested afresh: a tracker may
  *    reuse an id for an object of another class, so a verdict kept per
  *    object set could go stale.
  *
  * Objects whose class no query mentions are dropped on entry (§3: "objects
  * with class not requested by any query may be dropped from VR"). The
  * CNFEvalE index and that class filter are derived from `queries`, kept out
  * of the serialized state, and rebuilt on first use after a restore.
  */
final class QueryPipeline(val queries: Vector[CnfQuery],
                          val spec: WindowSpec,
                          method: String,
                          pruneByEval: Boolean = false) extends Serializable {

  @transient private lazy val index = CnfEvalE(queries)
  @transient private lazy val relevant: Set[String] = queries.flatMap(_.labels).toSet
  private val classOf = mutable.HashMap.empty[Int, String]

  /** ≥-only query sets admit creation-time termination (Proposition 1). */
  val pruningActive: Boolean = pruneByEval && queries.nonEmpty && queries.forall(_.geOnly)

  private val generator: McosGenerator =
    McosGenerator(method, spec, Option.when(pruningActive)(ids => !index.anyMatch(aggregates(ids))))

  /** Class-count aggregates of one MCOS (step 2a of §5.2). */
  def aggregates(ids: ObjSet): Map[String, Int] = {
    val counts = mutable.HashMap.empty[String, Int]
    ids.foreach { oid =>
      classOf.get(oid).foreach(l => counts.update(l, counts.getOrElse(l, 0) + 1))
    }
    counts.toMap
  }

  /** Feed one frame of the VR relation; emits all (query, MCOS) matches in
    * the window ending at `fid`. A frame the generator rejects (a fid that
    * does not increase, a negative id) leaves the pipeline unchanged.
    */
  def processFrame(fid: Int, objects: Seq[(Int, String)]): Vector[QueryMatch] = {
    val kept = objects.filter { case (_, cls) => relevant.contains(cls) }
    val ids = ObjSet.from(kept.map(_._1))
    generator.requireNext(fid)
    kept.foreach { case (oid, cls) => classOf.update(oid, cls) }
    evaluate(generator.processFrame(fid, ids))
  }

  /** Step 2 of §5.2 over a Result State Set. */
  private def evaluate(results: Vector[McosResult]): Vector[QueryMatch] =
    results.flatMap { r =>
      index.matching(aggregates(r.objects)).toVector.sorted
        .map(qid => QueryMatch(r.fid, qid, r.objects, r.frames))
    }

  def stateCount: Int = generator.stateCount
  def intersections: Long = generator.intersections
}
