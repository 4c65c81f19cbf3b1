package perfbench

import java.io.{File, ObjectOutputStream, OutputStream}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core.{McosGenerator, ObjSet, WindowSpec}
import repro.query.QueryPipeline
import repro.spark.{MatchRow, McosBatch, McosRow, McosStreaming, VideoRelation}
import repro.video.{VRRow, VideoStream}

object SparkLegs {
  /** Local-mode session. Spark defaults apply, except that shuffle
    * partitions (and with them the streaming state-store partitions) equal
    * the core count: at the default 200, one micro-batch takes seconds.
    */
  def session(nproc: Int, work: File): SparkSession =
    SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .config("spark.sql.streaming.numRecentProgressUpdates", "10000")
      .getOrCreate()

  /** VR rows of the feeds as a Dataset, exactly as the program's own
    * `VideoRelation.dataset` builds it.
    */
  def dataset(spark: SparkSession, feeds: Vector[Feed]): Dataset[VRRow] =
    VideoRelation.dataset(spark, feeds.map { f =>
      val frames = Array.fill(Workloads.prefixFrames)(Vector.empty[(Int, String)])
      f.frames.foreach { case (fid, objs) => frames(fid) = objs }
      VideoStream(f.name, Workloads.prefixFrames, frames.toVector)
    })

  type MatchKey = (String, Int, Int, Vector[Int], Vector[Int])
  type McosKey = (String, Int, Vector[Int], Vector[Int])
  def key(r: MatchRow): MatchKey = (r.vid, r.fid, r.qid, r.objects.toVector, r.frames.toVector)
  def key(r: McosRow): McosKey = (r.vid, r.fid, r.objects.toVector, r.frames.toVector)

  /** Rows the batch job must return: the in-process pipeline, replayed per
    * feed over the same VR frames.
    */
  def batchReference(feeds: Vector[Feed], qs: QuerySet, spec: WindowSpec,
                     method: String, prune: Boolean): Set[MatchKey] =
    feeds.flatMap { f =>
      val pipe = new QueryPipeline(qs.queries, spec, method, prune)
      f.frames.flatMap { case (fid, objs) =>
        pipe.processFrame(fid, objs).map(m => (f.name, fid, m.qid, m.objects.toVector, m.frames))
      }
    }.toSet

  /** Rows each micro-batch must emit: an in-process MFS generator per feed,
    * grouped by the micro-batch that carries the frame.
    */
  def streamReference(feeds: Vector[Feed], spec: WindowSpec, step: Int): Map[Int, Set[McosKey]] =
    feeds.flatMap { f =>
      val gen = McosGenerator("MFS", spec)
      f.frames.flatMap { case (fid, objs) =>
        gen.processFrame(fid, ObjSet.from(objs.map(_._1)))
          .map(r => fid / step -> (f.name, fid, r.objects.toVector, r.frames))
      }
    }.groupMap(_._1)(_._2).map { case (b, rows) => b -> rows.toSet }

  /** Task and job metrics of jobs whose `perfbench.leg` local property
    * matches, from the listener bus.
    */
  final class LegListener(leg: String) extends SparkListener {
    private val stages = mutable.HashSet.empty[Int]
    @volatile var jobsStarted = 0
    @volatile var jobsEnded = 0
    private val jobs = mutable.HashSet.empty[Int]
    var tasks = 0L
    var taskNs = 0L
    var taskNsMax = 0L
    var gcMs = 0L
    var shuffleReadBytes = 0L

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (Option(e.properties).exists(_.getProperty("perfbench.leg") == leg)) {
        jobs += e.jobId
        stages ++= e.stageIds
        jobsStarted += 1
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (jobs.contains(e.jobId)) jobsEnded += 1
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (stages.contains(e.stageId) && e.taskMetrics != null) {
        val m = e.taskMetrics
        tasks += 1
        taskNs += m.executorRunTime * 1000000L
        taskNsMax = math.max(taskNsMax, m.executorRunTime * 1000000L)
        gcMs += m.jvmGCTime
        shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      }
    }
    /** Wait until the bus has delivered the end of every job it started. */
    def drain(): Unit = {
      val deadline = System.nanoTime() + 10000000000L
      while ((jobsStarted == 0 || jobsEnded < jobsStarted) && System.nanoTime() < deadline)
        Thread.sleep(5)
    }
  }

  /** One `McosBatch.runQueries` job over all feeds, run to completion. */
  def batchJob(ds: Dataset[VRRow], spec: WindowSpec, method: String, qs: QuerySet,
               prune: Boolean): Option[Set[MatchKey]] =
    try Some(McosBatch.runQueries(ds, spec, method, qs.queries, prune).collect().iterator.map(key).toSet)
    catch { case NonFatal(_) => None }

  /** A `McosStreaming.run` query over a MemoryStream whose micro-batches are
    * collected in this process by a `foreachBatch` sink.
    */
  final class Stream(spark: SparkSession, spec: WindowSpec, checkpoint: File) {
    private val input = MemoryStream[VRRow](spark.implicits.newProductEncoder[VRRow], spark.sqlContext)
    private val emitted = new ConcurrentLinkedQueue[McosRow]()
    @volatile var rowsOut = 0L
    private val sink: (Dataset[McosRow], Long) => Unit = { (batch, _) =>
      val rows = batch.collect()
      rowsOut += rows.length
      rows.foreach(emitted.add)
    }
    val query = McosStreaming.run(input.toDS(), spec, "MFS")
      .writeStream
      .option("checkpointLocation", checkpoint.getPath)
      .foreachBatch(sink)
      .start()

    /** Add one micro-batch, wait for it, and return its rows, or None if the
      * query failed.
      */
    def step(rows: Seq[VRRow]): Option[Set[McosKey]] =
      try {
        input.addData(rows)
        query.processAllAvailable()
        val out = mutable.HashSet.empty[McosKey]
        var r = emitted.poll()
        while (r != null) { out += key(r); r = emitted.poll() }
        Some(out.toSet)
      } catch { case NonFatal(_) => None }

    def stop(): Unit = query.stop()
  }

  /** The rows of micro-batch `b`: the next `step` frames of every feed. */
  def microBatches(feeds: Vector[Feed], step: Int, count: Int): Vector[Vector[VRRow]] =
    Vector.tabulate(count)(b => feeds.flatMap(f => f.rows.filter(r => r.fid / step == b)))

  /** Java-serialized size of each feed's generator state at every
    * micro-batch boundary, serialized the way `Encoders.javaSerialization`
    * stores `McosStreaming.FeedState`, on a thread with the JVM's default
    * stack size (as a Spark task thread has).
    */
  final case class StateProbe(attempts: Long, failures: Long, bytesMax: Long, ns: Long)

  def probeState(feeds: Vector[Feed], spec: WindowSpec, method: String, step: Int,
                 count: Int, tracer: Tracer): StateProbe = {
    var attempts, failures, bytesMax, ns = 0L
    feeds.foreach { f =>
      val st = McosStreaming.FeedState(McosGenerator(method, spec), -1)
      val byBatch = f.frames.groupBy(_._1 / step)
      (0 until count).foreach { b =>
        byBatch.getOrElse(b, Vector.empty).foreach { case (fid, objs) =>
          st.gen.processFrame(fid, ObjSet.from(objs.map(_._1)))
          st.lastFid = fid
        }
        val span = tracer.open(s"spark.state.${method.toLowerCase}.serialize")
        val (bytes, dt) = serializedSize(st)
        tracer.close(span, "bytes" -> bytes)
        attempts += 1
        ns += dt
        if (bytes < 0) failures += 1 else bytesMax = math.max(bytesMax, bytes)
      }
    }
    StateProbe(attempts, failures, bytesMax, ns)
  }

  /** (bytes, ns) of one Java serialization; bytes is -1 if it failed. */
  private def serializedSize(obj: AnyRef): (Long, Long) = {
    var bytes = -1L
    var dt = 0L
    val t = new Thread(() => {
      val counter = new OutputStream {
        var n = 0L
        override def write(b: Int): Unit = n += 1
        override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
      }
      val t0 = System.nanoTime()
      try {
        val out = new ObjectOutputStream(counter)
        out.writeObject(obj)
        out.close()
        bytes = counter.n
      } catch { case NonFatal(_) | _: StackOverflowError => bytes = -1 }
      dt = System.nanoTime() - t0
    })
    t.start()
    t.join()
    (bytes, dt)
  }

  /** Progress of each completed micro-batch of a stopped query. */
  def progress(q: org.apache.spark.sql.streaming.StreamingQuery) =
    q.recentProgress.toVector.filter(_.numInputRows > 0)

  def durationMs(p: org.apache.spark.sql.streaming.StreamingQueryProgress, k: String): Long =
    Option(p.durationMs.get(k)).map(_.longValue).getOrElse(0L)

  def conf(spark: SparkSession): Map[String, String] =
    spark.sparkContext.getConf.getAll.toMap ++ spark.conf.getAll.filter(_._1.startsWith("spark.sql."))
}
