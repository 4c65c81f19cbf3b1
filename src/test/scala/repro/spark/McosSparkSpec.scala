package repro.spark

import java.nio.file.Files
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.hadoop.fs.FileUtil
import org.apache.spark.sql.{Dataset, Encoder}
import org.apache.spark.sql.execution.MapGroupsExec
import org.apache.spark.sql.execution.streaming.operators.stateful.flatmapgroupswithstate.FlatMapGroupsWithStateExec
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.{McosGenerator, WindowSpec}
import repro.core.ObjSet
import repro.query.{CnfQuery, QueryPipeline}
import repro.video.{Profiles, SynthVideo, VideoProfile, VRRow}

/** The Spark dataflow must be a faithful host for the sequential algorithms.
  * Batch and streaming share one per-feed `flatMapGroupsWithState` step, so:
  * batch ≡ the in-process generator or query pipeline, streaming ≡ batch
  * across arbitrary micro-batch splits (MCOS rows and query matches alike),
  * a stream restarted from its checkpoint resumes every feed's state, batch
  * plans no state store, and multiple feeds stay isolated.
  */
class McosSparkSpec extends SparkSpec {

  private val spec = WindowSpec(w = 30, d = 18)

  private lazy val profA = VideoProfile("A", 120, 25, 20, 2.0, 4.0, Profiles.V1.classWeights, 11L)
  private lazy val profB = VideoProfile("B", 100, 30, 12, 1.5, 3.0, Profiles.M1.classWeights, 12L)
  private lazy val streamA = SynthVideo.generate(profA)
  private lazy val streamB = SynthVideo.generate(profB)

  /** Expected rows via the in-process generator, fed only non-empty frames
    * (VR has no rows for empty frames, so neither does the Spark path).
    */
  private def localRows(stream: repro.video.VideoStream, method: String,
                        spec: WindowSpec = spec): Set[McosRow] = {
    val gen = McosGenerator(method, spec)
    stream.frames.zipWithIndex.collect { case (objs, fid) if objs.nonEmpty =>
      gen.processFrame(fid, ObjSet.from(objs.map(_._1)))
        .map(r => McosRow(stream.name, fid, r.objects.toSeq, r.frames))
    }.flatten.toSet
  }

  private def normalize(rows: Seq[McosRow]): Set[McosRow] =
    rows.map(r => r.copy(objects = r.objects.sorted, frames = r.frames.sorted)).toSet

  /** Expected matches via the in-process pipeline, one per feed. */
  private def localMatches(streams: Seq[repro.video.VideoStream], method: String,
                           queries: Vector[CnfQuery], prune: Boolean): Set[MatchRow] =
    streams.flatMap { s =>
      val pipe = new QueryPipeline(queries, spec, method, prune)
      s.frames.zipWithIndex.collect { case (objs, fid) if objs.nonEmpty =>
        pipe.processFrame(fid, objs).map(m => MatchRow(s.name, fid, m.qid, m.objects.toSeq, m.frames))
      }.flatten
    }.toSet

  private def normalizeMatches(rows: Seq[MatchRow]): Set[MatchRow] =
    rows.map(r => r.copy(objects = r.objects.sorted, frames = r.frames.sorted)).toSet

  Seq("NAIVE", "MFS", "SSG").foreach { method =>
    test(s"batch $method on Spark ≡ in-process generator, per feed") {
      val events = VideoRelation.dataset(spark, Seq(streamA, streamB))
      val got = McosBatch.run(events, spec, method).collect().toSeq
      val want = localRows(streamA, method) ++ localRows(streamB, method)
      assert(normalize(got) === want)
    }
  }

  test("streaming MFS ≡ batch MFS across micro-batch splits") {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val out = McosStreaming.run(ms.toDS(), spec, "MFS")
    val query = out.writeStream.format("memory").queryName("mcos_stream")
      .outputMode("append").start()
    try {
      // Three uneven micro-batches, in fid order.
      val rows = streamA.rows
      val cut1 = rows.count(_.fid < 40)
      val cut2 = rows.count(_.fid < 77)
      ms.addData(rows.take(cut1)); query.processAllAvailable()
      ms.addData(rows.slice(cut1, cut2)); query.processAllAvailable()
      ms.addData(rows.drop(cut2)); query.processAllAvailable()
      val got = spark.table("mcos_stream").as[McosRow].collect().toSeq
      assert(normalize(got) === localRows(streamA, "MFS"))
    } finally query.stop()
  }

  test("streaming drops late rows of processed frames and replays only the new frames") {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val out = McosStreaming.run(ms.toDS(), spec, "MFS")
    val query = out.writeStream.format("memory").queryName("late_stream")
      .outputMode("append").start()
    try {
      val rows = streamA.rows
      val (first, rest) = rows.partition(_.fid < 40)
      val processed = first.map(_.fid).distinct.sorted
      // Rows of the last processed frame and of an older one, repeated and
      // with an object never seen. The generator rejects a frame that is not
      // newer than its last one, so any of them reaching it fails the query.
      val late = rows.filter(r => r.fid == processed.last || r.fid == processed.head)
      val lateRows = late ++ late.map(_.copy(oid = 9999))
      ms.addData(first); query.processAllAvailable()
      ms.addData(lateRows ++ rest.filter(_.fid < 77)); query.processAllAvailable()
      ms.addData(lateRows ++ rest.filter(_.fid >= 77)); query.processAllAvailable()
      val got = spark.table("late_stream").as[McosRow].collect().toSeq
      assert(normalize(got) === localRows(streamA, "MFS"))
    } finally query.stop()
  }

  test("a row with a negative fid fails batch, query and streaming jobs instead of vanishing") {
    import spark.implicits._
    val rows = streamA.rows :+ streamA.rows.head.copy(fid = -1)
    // The generator rejects the frame; the job must surface that, not drop it.
    def failsWith(message: String)(job: => Any): Unit = {
      val e = intercept[Exception](job)
      val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
      assert(messages.exists(m => m != null && m.contains(message)), e)
    }
    def failsOnNegativeFid(job: => Any): Unit = failsWith("frame -1 arrived")(job)
    val events = spark.createDataset(rows)
    failsOnNegativeFid(McosBatch.run(events, spec, "MFS").collect())
    failsOnNegativeFid(McosBatch.runQueries(events, spec, "SSG",
      CnfQuery.randomQueries(8, seed = 5, maxN = 3)).collect())
    // A negative object id fails the job with a message that names it.
    val badOid = spark.createDataset(streamA.rows :+ streamA.rows.last.copy(oid = -7))
    failsWith("object id -7 is negative")(McosBatch.run(badOid, spec, "MFS").collect())
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val query = McosStreaming.run(ms.toDS(), spec, "MFS").writeStream.format("memory")
      .queryName("negative_fid_stream").outputMode("append").start()
    try failsOnNegativeFid { ms.addData(rows); query.processAllAvailable() }
    finally query.stop()
  }

  test("a micro-batch of only late rows writes no state, and later rows still match") {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val out = McosStreaming.run(ms.toDS(), spec, "MFS")
    val query = out.writeStream.format("memory").queryName("late_only_stream")
      .outputMode("append").start()
    try {
      val rows = streamA.rows
      val (first, rest) = rows.partition(_.fid < 40)
      val late = first.filter(_.fid >= 30)
      ms.addData(first); query.processAllAvailable()
      ms.addData(late); query.processAllAvailable()
      val lateBatch = query.recentProgress.filter(_.numInputRows > 0).last
      assert(lateBatch.numInputRows === late.size)
      assert(lateBatch.stateOperators(0).numRowsUpdated === 0)
      ms.addData(rest); query.processAllAvailable()
      val got = spark.table("late_only_stream").as[McosRow].collect().toSeq
      assert(normalize(got) === localRows(streamA, "MFS"))
    } finally query.stop()
  }

  /** Stream `rows` through `job` in micro-batches of 20 frames, stopping
    * after three and restarting from the checkpoint; returns every row that
    * the run before and the run after the restart emitted.
    */
  private def restarted[O](rows: Seq[VRRow])(job: Dataset[VRRow] => Dataset[O]): Seq[O] = {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val dir = Files.createTempDirectory("mcos-restart")
    val emitted = new ConcurrentLinkedQueue[O]()
    val batchIds = new ConcurrentLinkedQueue[Long]()
    val sink: (Dataset[O], Long) => Unit = { (batch, id) =>
      batch.collect().foreach(emitted.add)
      batchIds.add(id)
    }
    def start() = job(ms.toDS()).writeStream
      .option("checkpointLocation", dir.toString).foreachBatch(sink).start()
    val batches = rows.groupBy(_.fid / 20).toSeq.sortBy(_._1).map(_._2)
    try {
      // Stop after three micro-batches: the windows (w=30) then hold
      // states that only the second query's restored state can extend.
      Seq(batches.take(3), batches.drop(3)).foreach { part =>
        val query = start()
        try part.foreach { rows => ms.addData(rows); query.processAllAvailable() }
        finally query.stop()
      }
      assert(batchIds.asScala.toSeq === batches.indices.map(_.toLong))
      emitted.asScala.toSeq
    } finally FileUtil.fullyDelete(dir.toFile)
  }

  Seq("MFS", "SSG").foreach { method =>
    test(s"streaming $method restarted from its checkpoint ≡ in-process generator") {
      val got = restarted(streamA.rows)(McosStreaming.run(_, spec, method))
      assert(normalize(got) === localRows(streamA, method))
    }
  }

  test("streamed SSG_O query evaluation restarted from its checkpoint ≡ in-process pipeline, with id reuse") {
    // The restored pipelines rebuild their CNFEvalE index from the queries.
    val feeds = Seq(SynthVideo.generate(profA, idReuse = 1), SynthVideo.generate(profB, idReuse = 1))
    val ge = CnfQuery.geQueries(8, nMin = 2, seed = 3)
    val want = localMatches(feeds, "SSG", ge, prune = true)
    assert(want.nonEmpty)
    val got = restarted(feeds.flatMap(_.rows))(McosBatch.runQueries(_, spec, "SSG", ge, pruneByEval = true))
    assert(normalizeMatches(got) === want)
  }

  test("streaming SSG keeps graph state alive across many tiny batches") {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val out = McosStreaming.run(ms.toDS(), spec, "SSG")
    val query = out.writeStream.format("memory").queryName("ssg_stream")
      .outputMode("append").start()
    try {
      streamB.rows.groupBy(_.fid).toSeq.sortBy(_._1).grouped(7).foreach { chunk =>
        ms.addData(chunk.flatMap(_._2))
        query.processAllAvailable()
      }
      val got = spark.table("ssg_stream").as[McosRow].collect().toSeq
      assert(normalize(got) === localRows(streamB, "SSG"))
    } finally query.stop()
  }

  test("streaming SSG at paper scale ≡ in-process SSG over M2's first 240 frames in 12 micro-batches") {
    import spark.implicits._
    // w=300 as in the paper: by frame 149 the graph is deep enough that a
    // default-serialized generator overflowed a task thread's stack. d=120
    // makes states satisfied within the prefix, so rows are compared too.
    val paperSpec = WindowSpec(w = 300, d = 120)
    val m2 = SynthVideo.generate(Profiles.M2)
    val prefix = m2.copy(length = 240, frames = m2.frames.take(240))
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val ms = MemoryStream[VRRow](enc, spark)
    val out = McosStreaming.run(ms.toDS(), paperSpec, "SSG")
    val query = out.writeStream.format("memory").queryName("ssg_paper_stream")
      .outputMode("append").start()
    try {
      prefix.rows.groupBy(_.fid / 20).toSeq.sortBy(_._1).foreach { case (_, batch) =>
        ms.addData(batch)
        query.processAllAvailable()
      }
      val got = spark.table("ssg_paper_stream").as[McosRow].collect().toSeq
      val want = localRows(prefix, "SSG", paperSpec)
      assert(want.nonEmpty)
      assert(normalize(got) === want)
    } finally query.stop()
  }

  test("streamed query evaluation ≡ batch ≡ in-process pipeline at two micro-batch splits, with id reuse") {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    // p_o = 1: ids return to a later track, possibly of another class.
    val feeds = Seq(SynthVideo.generate(profA, idReuse = 1), SynthVideo.generate(profB, idReuse = 1))
    val events = VideoRelation.dataset(spark, feeds)
    val ge = CnfQuery.geQueries(8, nMin = 2, seed = 3)
    val mixed = CnfQuery.randomQueries(8, seed = 5, maxN = 3)
    val cases = Seq(("MFS", ge, true), ("SSG", ge, true), ("MFS", mixed, false), ("SSG", mixed, false))
    cases.foreach { case (method, queries, prune) =>
      val want = localMatches(feeds, method, queries, prune)
      assert(want.nonEmpty)
      assert(normalizeMatches(McosBatch.runQueries(events, spec, method, queries, prune).collect().toSeq) === want)
      Seq(7, 40).foreach { step =>
        val name = s"matches_${method}_${prune}_$step"
        val ms = MemoryStream[VRRow](enc, spark)
        val query = McosBatch.runQueries(ms.toDS(), spec, method, queries, prune).writeStream
          .format("memory").queryName(name).outputMode("append").start()
        try {
          feeds.flatMap(_.rows).groupBy(_.fid / step).toSeq.sortBy(_._1).foreach { case (_, rows) =>
            ms.addData(rows); query.processAllAvailable()
          }
          val got = spark.table(name).as[MatchRow].collect().toSeq
          assert(normalizeMatches(got) === want, s"$method pruned=$prune, $step frames per micro-batch")
        } finally query.stop()
      }
    }
  }

  test("on a batch Dataset the per-feed step plans MapGroups and no state store") {
    val events = VideoRelation.dataset(spark, Seq(streamA))
    Seq(McosBatch.run(events, spec, "MFS"),
        McosBatch.runQueries(events, spec, "SSG", CnfQuery.randomQueries(8, seed = 5))).foreach { ds =>
      val plan = ds.queryExecution.sparkPlan
      assert(plan.collect { case p: MapGroupsExec => p }.size === 1, plan)
      assert(plan.collect { case p: FlatMapGroupsWithStateExec => p }.isEmpty, plan)
    }
  }

  test("feeds are isolated: per-feed results never mix object ids across vids") {
    val events = VideoRelation.dataset(spark, Seq(streamA, streamB))
    val rows = McosBatch.run(events, spec, "MFS").collect()
    val idsA = streamA.rows.map(_.oid).toSet
    val idsB = streamB.rows.map(_.oid).toSet
    rows.foreach { r =>
      val pool = if (r.vid == "A") idsA else idsB
      assert(r.objects.forall(pool.contains), s"row $r leaks ids across feeds")
    }
  }
}
