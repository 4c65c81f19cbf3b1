package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.video.{VideoStream, VRRow}

/** The structured relation VR(vid, fid, id, class) of §2/§3 as a Spark
  * Dataset — the hand-off point between the (simulated) detection/tracking
  * layer and MCOS generation.
  */
object VideoRelation {

  /** VR rows of one or more feeds as a typed Dataset. */
  def dataset(spark: SparkSession, streams: Seq[VideoStream]): Dataset[VRRow] = {
    import spark.implicits._
    spark.createDataset(streams.flatMap(_.rows))
  }
}
