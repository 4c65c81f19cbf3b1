package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.WindowSpec
import repro.video.{Profiles, SynthVideo, VideoProfile}

/** Relational layer correctness: every SQL-expressible primitive of the
  * test-side [[RelationalQueries]] is checked against DuckDB via the provided
  * oracle, so is the program's own MCOS output where SQL can express its
  * object union, and the VR dataset holds each row of the feed once.
  */
class VideoRelationSpec extends SparkSpec {

  private lazy val smallProfile = VideoProfile(
    "T", frames = 150, objects = 40, framesPerObj = 25, occPerObj = 2.5,
    meanGap = 4.0, classWeights = Profiles.V1.classWeights, seed = 7L)
  private lazy val stream = SynthVideo.generate(smallProfile)
  private lazy val events = VideoRelation.dataset(spark, Seq(stream))
  private lazy val vr = events.toDF()

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
    val sql = s"""SELECT vid, oid, COUNT(*) AS duration FROM vr
          WHERE CAST(fid AS INT) > ${atFid - w} AND CAST(fid AS INT) <= $atFid
          GROUP BY vid, oid HAVING COUNT(*) >= $d"""
    Oracle.assertEquivalent(RelationalQueries.objectsSatisfyingDuration(vr, atFid, w, d), sql, "vr" -> vr)
    // The program's answer: an object seen in at least `d` window frames lies
    // in its own closure, which is an MCOS, so the union of the MCOS emitted
    // at `atFid` is exactly that set of objects.
    import spark.implicits._
    Seq("NAIVE", "MFS", "SSG").foreach { method =>
      val mcosObjects = McosBatch.run(events, WindowSpec(w, d), method)
        .filter(_.fid == atFid)
        .flatMap(r => r.objects.map(oid => (r.vid, oid)))
        .distinct().toDF("vid", "oid")
      assert(!mcosObjects.isEmpty, method)
      Oracle.assertEquivalent(mcosObjects, s"SELECT vid, oid FROM ($sql)", "vr" -> vr)
    }
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

  test("the VR dataset carries one row per (vid, fid, oid)") {
    import org.apache.spark.sql.functions._
    val dupes = vr.groupBy("vid", "fid", "oid").count().filter(col("count") > 1).count()
    assert(dupes === 0)
    assert(vr.count() === stream.rows.size.toLong)
  }
}
