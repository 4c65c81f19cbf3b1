package repro.spark

import org.apache.spark.sql.Dataset
import repro.core.WindowSpec
import repro.video.VRRow

/** The streaming name of [[McosBatch.run]], whose per-feed step serves batch
  * and streaming Datasets alike, and the group state that step keeps.
  */
object McosStreaming {

  /** Per-feed group state: the live generator or query pipeline, and the
    * last processed frame (later rows of it or of older frames are dropped,
    * matching the paper's in-order stream assumption).
    */
  final case class FeedState[G](gen: G, var lastFid: Int) extends Serializable

  def run(events: Dataset[VRRow], spec: WindowSpec, method: String): Dataset[McosRow] =
    McosBatch.run(events, spec, method)
}
