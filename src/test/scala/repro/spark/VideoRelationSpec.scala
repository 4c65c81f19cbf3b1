package repro.spark

import repro.{Oracle, SparkSpec}
import repro.video.{Profiles, SynthVideo, VideoProfile}

/** Relational layer correctness: every SQL-expressible primitive is checked
  * against DuckDB via the provided oracle, and Table 6 statistics computed
  * relationally must match the local (Scala) computation.
  */
class VideoRelationSpec extends SparkSpec {

  private lazy val smallProfile = VideoProfile(
    "T", frames = 150, objects = 40, framesPerObj = 25, occPerObj = 2.5,
    meanGap = 4.0, classWeights = Profiles.V1.classWeights, seed = 7L)
  private lazy val stream = SynthVideo.generate(smallProfile)
  private lazy val vr = VideoRelation.dataset(spark, Seq(stream)).toDF()

  test("class counts per frame match DuckDB") {
    Oracle.assertEquivalent(
      RelationalQueries.classCounts(vr),
      "SELECT vid, fid, cls, COUNT(*) AS cnt FROM vr GROUP BY vid, fid, cls",
      "vr" -> vr)
  }

  test("window durations match DuckDB") {
    val atFid = 120; val w = 60
    Oracle.assertEquivalent(
      RelationalQueries.windowDurations(vr, atFid, w),
      s"""SELECT vid, oid, COUNT(*) AS duration FROM vr
          WHERE CAST(fid AS INT) > ${atFid - w} AND CAST(fid AS INT) <= $atFid
          GROUP BY vid, oid""",
      "vr" -> vr)
  }

  test("duration-satisfying objects match DuckDB") {
    val atFid = 149; val w = 60; val d = 40
    Oracle.assertEquivalent(
      RelationalQueries.objectsSatisfyingDuration(vr, atFid, w, d),
      s"""SELECT vid, oid, COUNT(*) AS duration FROM vr
          WHERE CAST(fid AS INT) > ${atFid - w} AND CAST(fid AS INT) <= $atFid
          GROUP BY vid, oid HAVING COUNT(*) >= $d""",
      "vr" -> vr)
  }

  test("pairwise co-occurrence counts match DuckDB") {
    val atFid = 100; val w = 40
    Oracle.assertEquivalent(
      RelationalQueries.coocPairs(vr, atFid, w),
      s"""SELECT a.vid AS vid, CAST(a.oid AS INT) AS oid1, CAST(b.oid AS INT) AS oid2,
                 COUNT(*) AS cooc_frames
          FROM vr a JOIN vr b ON a.vid = b.vid AND a.fid = b.fid
          WHERE CAST(a.oid AS INT) < CAST(b.oid AS INT)
            AND CAST(a.fid AS INT) > ${atFid - w} AND CAST(a.fid AS INT) <= $atFid
          GROUP BY a.vid, CAST(a.oid AS INT), CAST(b.oid AS INT)""",
      "vr" -> vr)
  }

  test("frame cardinalities match DuckDB") {
    Oracle.assertEquivalent(
      RelationalQueries.frameCardinalities(vr),
      "SELECT vid, fid, COUNT(*) AS n_objects FROM vr GROUP BY vid, fid",
      "vr" -> vr)
  }

  test("Table 6 statistics via Spark SQL match DuckDB window functions") {
    Oracle.assertEquivalent(
      VideoRelation.tableSixStats(vr),
      """WITH seq AS (
           SELECT vid, CAST(oid AS INT) AS oid, CAST(fid AS INT) AS fid,
                  LAG(CAST(fid AS INT)) OVER (PARTITION BY vid, oid ORDER BY CAST(fid AS INT)) AS prev_fid
           FROM vr),
         per_obj AS (
           SELECT vid, oid, COUNT(*) AS appearances,
                  SUM(CASE WHEN fid > prev_fid + 1 THEN 1 ELSE 0 END) AS occl
           FROM seq GROUP BY vid, oid),
         per_feed AS (
           SELECT vid, COUNT(*) AS objects, SUM(appearances) AS ta, SUM(occl) AS toc
           FROM per_obj GROUP BY vid),
         fr AS (SELECT vid, MAX(CAST(fid AS INT)) + 1 AS frames FROM vr GROUP BY vid)
         SELECT fr.vid AS vid, fr.frames AS frames, per_feed.objects AS objects,
                ROUND(CAST(ta AS DOUBLE) / frames, 2) AS obj_per_frame,
                ROUND(CAST(toc AS DOUBLE) / objects, 2) AS occ_per_obj,
                ROUND(CAST(ta AS DOUBLE) / objects, 2) AS frames_per_obj
         FROM fr JOIN per_feed ON fr.vid = per_feed.vid""",
      "vr" -> vr)
  }

  test("Table 6 statistics via Spark SQL match the local stats computation") {
    val row = VideoRelation.tableSixStats(vr).collect().head
    val local = stream.stats
    // Relationally, a feed's length is max(fid)+1 — trailing empty frames
    // are invisible to VR — so compare denominators accordingly.
    val lastFid = stream.rows.map(_.fid).max
    assert(row.getAs[Long]("frames") === (lastFid + 1).toLong)
    assert(row.getAs[Long]("objects") === local.objects.toLong)
    val objPerFrame = local.objPerFrame * local.frames / (lastFid + 1)
    assert(math.abs(row.getAs[Double]("obj_per_frame") - objPerFrame) < 0.01)
    assert(math.abs(row.getAs[Double]("occ_per_obj") - local.occPerObj) < 0.01)
    assert(math.abs(row.getAs[Double]("frames_per_obj") - local.framesPerObj) < 0.01)
  }

  test("the VR dataset carries one row per (vid, fid, oid)") {
    import org.apache.spark.sql.functions._
    val dupes = vr.groupBy("vid", "fid", "oid").count().filter(col("count") > 1).count()
    assert(dupes === 0)
    assert(vr.count() === stream.rows.size.toLong)
  }
}
