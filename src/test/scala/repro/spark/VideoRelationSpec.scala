package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.WindowSpec
import repro.video.{Profiles, SynthVideo, VideoProfile}

/** Relational layer correctness: the SQL-expressible primitives of the
  * test-side [[RelationalQueries]] are checked against DuckDB via the provided
  * oracle, so is the program's own MCOS output where SQL can express it (its
  * object union and each MCOS's frames), and the VR dataset holds each row of
  * the feed once.
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
    // An MCOS's window duration is its frame set: each MCOS `McosBatch.run`
    // emits at `atFid` must hold exactly the window frames that hold every
    // one of its objects.
    val atFid = 120; val w = 60; val d = 20
    import spark.implicits._
    Seq("NAIVE", "MFS", "SSG").foreach { method =>
      val mcos = McosBatch.run(events, WindowSpec(w, d), method).filter(_.fid == atFid).collect()
        .map(r => (r.vid, r.objects.sorted.mkString(" "), r.objects, r.frames))
      assert(mcos.nonEmpty, method)
      val members = mcos.toSeq.flatMap { case (vid, mid, objects, _) => objects.map((vid, mid, _, objects.size)) }
      val frames = mcos.toSeq.flatMap { case (vid, mid, _, fids) => fids.map((vid, mid, _)) }
      Oracle.assertEquivalent(
        frames.toDF("vid", "mid", "fid"),
        s"""SELECT m.vid AS vid, m.mid AS mid, CAST(v.fid AS INT) AS fid
            FROM mcos m JOIN vr v ON m.vid = v.vid AND m.oid = v.oid
            WHERE CAST(v.fid AS INT) > ${atFid - w} AND CAST(v.fid AS INT) <= $atFid
            GROUP BY m.vid, m.mid, CAST(v.fid AS INT)
            HAVING COUNT(*) = MAX(CAST(m.n AS INT))""",
        "vr" -> vr, "mcos" -> members.toDF("vid", "mid", "oid", "n"))
    }
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
