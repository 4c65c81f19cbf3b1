package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{McosGenerator, WindowSpec}
import repro.core.ObjSet
import repro.query.{CnfQuery, QueryPipeline}
import repro.spark.McosStreaming.FeedState
import repro.video.VRRow

/** One satisfied MCOS emitted at frame `fid` of feed `vid`. */
final case class McosRow(vid: String, fid: Int, objects: Seq[Int], frames: Seq[Int])

/** One (query, MCOS) match emitted at frame `fid` of feed `vid`. */
final case class MatchRow(vid: String, fid: Int, qid: Int, objects: Seq[Int], frames: Seq[Int])

/** MCOS generation and query evaluation on Spark, over a batch or a streaming
  * Dataset of VR rows: the distributed form of the paper's §3 chain, where
  * MCOS Generation feeds Query Evaluation frame by frame. Each feed's
  * sequential generator or [[QueryPipeline]] lives as group state of one
  * `flatMapGroupsWithState` step. Parallelism is across feeds; the algorithms
  * themselves are order-dependent per feed (§4), see DESIGN.md §4.
  *
  * The step replays a feed's rows grouped by fid, in ascending fid order. On
  * a batch Dataset, Spark calls it once per feed with fresh state and plans it
  * as `MapGroups`, with no state store. On a stream it runs once per feed and
  * micro-batch: rows of a frame no newer than the feed's last processed frame
  * arrive late and are dropped before they reach the generator, whose
  * `processFrame` would reject them. A batch job or a feed's first
  * micro-batch skips no frame, so a negative fid fails the job. A feed's
  * state is written only in a micro-batch that processed one of its frames.
  * The state is carried via Java serialization, and each generator writes a
  * flat form of primitives (DESIGN.md §4), so writing it never recurses
  * through the SSG graph.
  *
  * On a stream the step also selects [[LocalCheckpointFileManager]] for the
  * session's streaming checkpoints (Spark's
  * `spark.sql.streaming.checkpointFileManagerClass`), unless the caller has
  * chosen a manager. Spark's default manager starts a `readlink` or `chmod`
  * process for most checkpoint writes on a local file system without the
  * native Hadoop library, which cost more than the generators' own work. The
  * setting applies to queries started from that session afterwards.
  */
object McosBatch {

  /** MCOS generation across all feeds in `events`. */
  def run(events: Dataset[VRRow], spec: WindowSpec, method: String): Dataset[McosRow] = {
    import events.sparkSession.implicits._
    perFeed(events, McosGenerator(method, spec)) { (gen, vid, fid, rs) =>
      gen.processFrame(fid, ObjSet.from(rs.map(_.oid)))
        .map(r => McosRow(vid, fid, r.objects.toSeq, r.frames))
    }
  }

  /** Full query evaluation across all feeds in `events`. On a stream, only
    * the class map of a feed's [[QueryPipeline]] grows with the feed's age:
    * it keeps every object seen (ROADMAP item 1).
    */
  def runQueries(events: Dataset[VRRow], spec: WindowSpec, method: String,
                 queries: Vector[CnfQuery], pruneByEval: Boolean = false): Dataset[MatchRow] = {
    import events.sparkSession.implicits._
    perFeed(events, new QueryPipeline(queries, spec, method, pruneByEval)) { (pipe, vid, fid, rs) =>
      pipe.processFrame(fid, rs.map(r => (r.oid, r.cls)))
        .map(m => MatchRow(vid, fid, m.qid, m.objects.toSeq, m.frames))
    }
  }

  private val checkpointManagerKey = "spark.sql.streaming.checkpointFileManagerClass"

  /** The per-feed step: `process` takes the feed's state, its vid and one
    * frame's rows, and returns that frame's output rows.
    */
  private def perFeed[G, O: Encoder](events: Dataset[VRRow], fresh: => G)(
      process: (G, String, Int, Vector[VRRow]) => Vector[O]): Dataset[O] = {
    val spark = events.sparkSession
    if (events.isStreaming && spark.conf.getOption(checkpointManagerKey).isEmpty)
      spark.conf.set(checkpointManagerKey, classOf[LocalCheckpointFileManager].getName)
    implicit val stateEnc: Encoder[FeedState[G]] = Encoders.javaSerialization[FeedState[G]]
    events.groupByKey(_.vid)(Encoders.STRING).flatMapGroupsWithState[FeedState[G], O](
      OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
      (vid: String, rows: Iterator[VRRow], state: GroupState[FeedState[G]]) =>
        val prior = state.getOption
        val st = prior.getOrElse(FeedState(fresh, -1))
        val frames = rows.toVector.groupBy(_.fid).toVector.sortBy(_._1)
          .filter(f => prior.forall(f._1 > _.lastFid))
        val out = frames.flatMap { case (fid, rs) => st.lastFid = fid; process(st.gen, vid, fid, rs) }
        if (frames.nonEmpty) state.update(st)
        out.iterator
    }
  }
}
