package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.spark.VideoRelation
import repro.video.{Profiles, SynthVideo}

/** spark-submit entrypoint: Table 6 dataset statistics, paper vs measured,
  * computed relationally over the VR relation.
  *
  * Usage: `spark-submit --class repro.jobs.Table6StatsJob repro.jar`
  */
object Table6StatsJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("table6-stats").getOrCreate()
    try {
      val streams = Profiles.all.map(SynthVideo.generate(_))
      val vr = VideoRelation.dataset(spark, streams).toDF()
      println("== Table 6 (measured, via Spark SQL) ==")
      VideoRelation.tableSixStats(vr).orderBy("vid").show(10, truncate = false)
      println("== Table 6 (paper) ==")
      Profiles.paperTable6.toVector.sortBy(_._1).foreach { case (n, s) =>
        println(f"$n%-3s $s")
      }
    } finally spark.stop()
  }
}
