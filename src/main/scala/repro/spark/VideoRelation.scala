package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
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

  /** Table 6 statistics per feed, computed relationally (Spark SQL):
    * an occlusion is a gap in an object's frame sequence, counted with a
    * lag window; columns mirror the paper's table exactly.
    */
  def tableSixStats(vr: DataFrame): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val byObj = Window.partitionBy("vid", "oid").orderBy("fid")
    val gaps = vr
      .withColumn("prev_fid", lag("fid", 1).over(byObj))
      .withColumn("is_gap", when(col("fid") > col("prev_fid") + 1, 1).otherwise(0))
    val perObject = gaps.groupBy("vid", "oid").agg(
      count(lit(1)).as("appearances"),
      sum("is_gap").as("occlusions"),
    )
    val perFeed = perObject.groupBy("vid").agg(
      count(lit(1)).as("objects"),
      sum("appearances").as("total_appearances"),
      sum("occlusions").as("total_occlusions"),
    )
    val frames = vr.groupBy("vid").agg((max("fid") + 1).as("frames"))
    frames.join(perFeed, "vid").select(
      col("vid"),
      col("frames"),
      col("objects"),
      round(col("total_appearances") / col("frames"), 2).as("obj_per_frame"),
      round(col("total_occlusions") / col("objects"), 2).as("occ_per_obj"),
      round(col("total_appearances") / col("objects"), 2).as("frames_per_obj"),
    )
  }
}
