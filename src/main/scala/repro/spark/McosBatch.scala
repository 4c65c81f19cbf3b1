package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{McosGenerator, WindowSpec}
import repro.core.ObjSet
import repro.query.{CnfQuery, QueryPipeline}
import repro.video.VRRow

/** One satisfied MCOS emitted at frame `fid` of feed `vid`. */
final case class McosRow(vid: String, fid: Int, objects: Seq[Int], frames: Seq[Int])

/** One (query, MCOS) match emitted at frame `fid` of feed `vid`. */
final case class MatchRow(vid: String, fid: Int, qid: Int, objects: Seq[Int], frames: Seq[Int])

/** Batch MCOS generation on Spark: each feed's VR rows are grouped, replayed
  * in fid order through the chosen sequential generator, and the per-frame
  * Result State Sets are emitted as rows. Parallelism is across feeds — the
  * algorithms themselves are inherently order-dependent per feed (§4), so
  * this is the faithful dataflow layering (see DESIGN.md §4).
  */
object McosBatch {

  /** The replay order of one feed: its rows (any order) grouped by fid, in
    * ascending fid order, without the frames up to `after` (a streaming
    * feed's last processed frame; rows of those frames arrived late). Every
    * other frame, a negative fid included, reaches the generator, which
    * rejects the frames it cannot take.
    */
  private[spark] def frames(rows: Iterator[VRRow], after: Option[Int] = None): Iterator[(Int, Vector[VRRow])] =
    rows.toVector.groupBy(_.fid).toVector.sortBy(_._1).iterator.filter(f => after.forall(f._1 > _))

  /** MCOS generation across all feeds in `events`. */
  def run(events: Dataset[VRRow], spec: WindowSpec, method: String): Dataset[McosRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    events.groupByKey(_.vid).flatMapGroups { (vid, rows) =>
      val gen = McosGenerator(method, spec)
      frames(rows).flatMap { case (fid, rs) =>
        gen.processFrame(fid, ObjSet.from(rs.map(_.oid)))
          .map(r => McosRow(vid, fid, r.objects.toSeq, r.frames))
      }
    }
  }

  /** Full query evaluation across all feeds in `events`. */
  def runQueries(events: Dataset[VRRow], spec: WindowSpec, method: String,
                 queries: Vector[CnfQuery], pruneByEval: Boolean = false): Dataset[MatchRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    events.groupByKey(_.vid).flatMapGroups { (vid, rows) =>
      val pipe = new QueryPipeline(queries, spec, method, pruneByEval)
      frames(rows).flatMap { case (fid, rs) =>
        pipe.processFrame(fid, rs.map(r => (r.oid, r.cls)))
          .map(m => MatchRow(vid, fid, m.qid, m.objects.toSeq, m.frames))
      }
    }
  }
}
