package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{McosGenerator, WindowSpec}
import repro.core.ObjSet
import repro.video.VRRow

/** Incremental MCOS generation as a Structured Streaming stateful operator —
  * the distributed form of the paper's MCOS Generation module (§3): object
  * streams arrive as a streaming Dataset of VR rows, and each feed's
  * generator (MFS or SSG state maintenance, with all their pruning) lives as
  * group state inside `flatMapGroupsWithState`, emitting the Result State Set
  * for every processed frame.
  *
  * Frames are replayed in fid order within each micro-batch; rows of a frame
  * no newer than the feed's last processed frame arrive late and are dropped
  * before they reach the generator, whose `processFrame` would reject them.
  * The generator state is carried via Java serialization, and each generator
  * writes a flat form of primitives (DESIGN.md §4): object-set words, live
  * frames and marks per state, and SSG edges as node positions. So the state
  * stays compact, and writing it never recurses through the SSG graph. A
  * feed's state is written only in a micro-batch that processed one of its
  * frames; a group of late rows alone leaves it as it was.
  *
  * `run` also selects [[LocalCheckpointFileManager]] for the session's
  * streaming checkpoints (Spark's `spark.sql.streaming.checkpointFileManagerClass`),
  * unless the caller has chosen a manager. Spark's default manager starts a
  * `readlink` or `chmod` process for most checkpoint writes on a local file
  * system without the native Hadoop library: 20 per state-store partition and
  * 20 for the offset and commit logs in every micro-batch, which cost more
  * than the generators' own work. The setting applies to queries started
  * from that session afterwards.
  */
object McosStreaming {

  /** Serializable per-feed operator state: the live generator + a watermark
    * of the last processed frame (late rows are dropped, matching the
    * paper's in-order stream assumption).
    */
  final case class FeedState(gen: McosGenerator, var lastFid: Int) extends Serializable

  private val checkpointManagerKey = "spark.sql.streaming.checkpointFileManagerClass"

  def run(events: Dataset[VRRow], spec: WindowSpec, method: String): Dataset[McosRow] = {
    val spark = events.sparkSession
    if (spark.conf.getOption(checkpointManagerKey).isEmpty)
      spark.conf.set(checkpointManagerKey, classOf[LocalCheckpointFileManager].getName)
    import spark.implicits._
    implicit val stateEnc: Encoder[FeedState] = Encoders.javaSerialization[FeedState]

    events.groupByKey(_.vid).flatMapGroupsWithState[FeedState, McosRow](
      OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
      (vid: String, rows: Iterator[VRRow], state: GroupState[FeedState]) =>
        val prior = state.getOption
        val st = prior.getOrElse(FeedState(McosGenerator(method, spec), -1))
        val lastFid = st.lastFid
        val out = McosBatch.frames(rows, prior.map(_.lastFid)).flatMap { case (fid, rs) =>
          st.lastFid = fid
          st.gen.processFrame(fid, ObjSet.from(rs.map(_.oid)))
            .map(r => McosRow(vid, fid, r.objects.toSeq, r.frames))
        }.toVector
        if (st.lastFid != lastFid) state.update(st)
        out.iterator
    }
  }
}
