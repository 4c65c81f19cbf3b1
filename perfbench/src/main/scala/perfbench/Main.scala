package perfbench

import java.io.File
import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.query.CnfEvalE
import repro.video.VRRow

/** The benchmark's entry point: one run of one workload.
  *
  * {{{
  * Main --workload <replay-e|prune-ge> --seed <n> --seconds <s> --trace <0|1>
  *      [--commit <sha>] [--work <dir>]
  * }}}
  *
  * A run has two phases, so that Spark's threads and JIT work never overlap
  * the in-process timings: first the in-process replays, then the Spark
  * batch and streaming legs. It prints the run's environment, the failure
  * counts and one line per metric, and as its last line the JSON result.
  * With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
  * they are the per-layer ones from a traced run, whose spans are written to
  * `<work>/trace.jsonl`.
  */
object Main {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  private def ms(ns: Long): Double = ns / 1e6
  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }
  private def medianNs(xs: Seq[Long]): Long = Stats.median(xs.map(_.toDouble)).toLong

  /** Every feed some workload replays, for the per-feed busy times. */
  private val allFeeds = Workloads.all.flatMap(_.feeds).distinct.sorted

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.byName(opt("workload"))
    val seed = Seed(opt("seed").toLong)
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") == "1"
    val work = new File(opts.getOrElse("work", ".bench_build/run"))
    val nproc = Runtime.getRuntime.availableProcessors
    val spec = Workloads.spec
    val tracer = new Tracer(traced)
    val ops = new Ops
    val runStart = System.nanoTime()
    val phases = mutable.LinkedHashMap.empty[String, Double]
    def phase(name: String): Unit = phases(name) = (System.nanoTime() - runStart) / 1e9

    // ==== phase 1: in process ================================================
    // Set-up, timed into setup_s: inputs and query indexes (median of three
    // builds). Only a traced run, which reports in-process times, makes a
    // JIT warm-up pass of every method.
    final case class Inputs(feeds: Vector[Feed], querySets: Vector[QuerySet], genNs: Long)
    val builds = Vector.fill(3) {
      timed {
        val (feeds, genNs) = timed(w.feeds.map(Workloads.feed(_, w.idReuse, seed)))
        val querySets = w.querySets(seed)
        querySets.foreach(qs => CnfEvalE(qs.queries))
        Inputs(feeds, querySets, genNs)
      }
    }
    val Inputs(feeds, querySets, _) = builds.head._1
    val replay = new Replay(w, feeds, querySets, spec, ops, tracer)
    if (traced) {
      val warm = new Replay(w, feeds, querySets, spec, new Ops, new Tracer(false))
      Workloads.methods.foreach(m => warm.pass(m, None, mutable.ArrayBuffer.empty))
    }

    phase("warmed_up")

    // References, outside every timed region.
    val (frameRefs, refNs) = timed(replay.references())
    val (streamRef, streamRefNs) = timed(SparkLegs.streamReference(feeds, spec, Workloads.streamStep))
    val batchQs = querySets.head
    val batchPrune = w.prunes(Workloads.batchMethod)
    // Unpruned, every method must give the MFS_E answers; pruned, the batch
    // job is checked against the same pruned pipeline run in process.
    val (batchRef, batchRefNs) = timed {
      if (!batchPrune) feeds.flatMap { f =>
        frameRefs((batchQs.label, f.name)).matches.iterator.flatten
          .map(m => (f.name, m.fid, m.qid, m.objects.toVector, m.frames))
      }.toSet
      else SparkLegs.batchReference(feeds, batchQs, spec, Workloads.batchMethod, batchPrune)
    }

    phase("referenced")

    // Replays, checked frame by frame: one round over the methods, and in a
    // traced run more rounds until the budget is spent. Each method keeps its
    // fastest pass: the machine's speed wanders by a third for seconds at a
    // time, and the fastest pass is the one least slowed. The replays run
    // before Spark starts: once Spark has run the generators in its tasks,
    // in-process passes run about 1.6x slower.
    final case class Pass(ns: Long, lat: mutable.ArrayBuffer[Long])
    val passes = Workloads.methods.map(_ -> mutable.ArrayBuffer.empty[Pass]).toMap
    val replayBudgetNs = (seconds * Workloads.replayShare * 1e9).toLong
    val replayStart = System.nanoTime()
    var n = 0
    while (n < Workloads.methods.size ||
           (traced && System.nanoTime() - replayStart < replayBudgetNs)) {
      val m = Workloads.methods(n % Workloads.methods.size)
      val lat = mutable.ArrayBuffer.empty[Long]
      passes(m) += Pass(replay.pass(m, Some(frameRefs), lat), lat)
      n += 1
    }
    def best(m: String): Pass = passes(m).minBy(_.ns)
    phase("replayed")
    if (traced) inProcessLayers(w, seed, feeds, querySets, replay, frameRefs, ops, best(_).ns, builds.map(_._1.genNs))
    phase("traced_in_process")

    // ==== phase 2: Spark =======================================================
    // Set-up, timed into setup_s: session start, the VR Dataset (median of
    // three builds) and the first micro-batch.
    val (spark, sparkNs) = timed(SparkLegs.session(nproc, work))
    spark.sparkContext.setLogLevel("ERROR")
    val datasets = Vector.fill(3)(timed(SparkLegs.dataset(spark, feeds)))
    val ds = datasets.head._1
    val microBatches = SparkLegs.microBatches(feeds, Workloads.streamStep, Workloads.microBatches)
    // The stream leg's first micro-batch, which starts the query, is set-up.
    val stream = new SparkLegs.Stream(spark, spec, new File(work, "checkpoint"))
    val (_, sparkWarmNs) = timed {
      ops.record("micro_batch", stream.step(microBatches.head).contains(streamRef.getOrElse(0, Set.empty)))
    }
    phase("spark_warmed_up")
    val setupNs = medianNs(builds.map(_._2)) + sparkNs + medianNs(datasets.map(_._2)) + sparkWarmNs

    // Batch: one checked job, and in a traced run more until the budget is
    // spent, at least three; the fastest counts, as for the replays, which
    // also leaves out the first, cold job.
    val batchRows = feeds.map(_.rows.size).sum
    val batchWallNs = mutable.ArrayBuffer.empty[Long]
    val batchBudgetNs = (seconds * (1 - Workloads.replayShare) * 1e9).toLong
    val batchStart = System.nanoTime()
    while (batchWallNs.isEmpty ||
           (traced && (batchWallNs.size < 3 || System.nanoTime() - batchStart < batchBudgetNs))) {
      val (out, dt) = timed(SparkLegs.batchJob(ds, spec, Workloads.batchMethod, batchQs, batchPrune))
      batchWallNs += dt
      ops.record("batch_job", out.contains(batchRef))
    }
    phase("batch_done")

    // Streaming: closed loop, the next micro-batch is added when one returns.
    val streamSpan = tracer.open("spark.stream")
    val batchMs = mutable.ArrayBuffer.empty[Double]
    try microBatches.indices.drop(1).foreach { b =>
      val span = tracer.open("spark.stream.microBatch", streamSpan)
      val (out, dt) = timed(stream.step(microBatches(b)))
      tracer.close(span, "rows_in" -> microBatches(b).size.toLong)
      batchMs += ms(dt)
      ops.record("micro_batch", out.contains(streamRef.getOrElse(b, Set.empty)))
    } finally stream.stop()
    tracer.close(streamSpan)
    phase("stream_done")

    if (traced) {
      sparkLayers(feeds, spark, ds, batchQs, batchPrune, batchRef, batchRows, stream, ops, tracer, nproc)
      Seq("frame", "batch_job", "micro_batch", "prop1_frame").foreach { k =>
        put(s"ops.$k.attempted", ops.attempted.getOrElse(k, 0L).toDouble, "count")
        put(s"ops.$k.failed", ops.failed.getOrElse(k, 0L).toDouble, "count")
      }
      tracer.write(new File(work, "trace.jsonl"))
    }
    phase("traced_spark")
    val sparkEnv = Seq(
      "spark_version" -> Json.str(spark.version),
      "spark_master" -> Json.str(spark.sparkContext.master),
      "spark_conf" -> Json.obj(SparkLegs.conf(spark).toSeq.sorted.map { case (k, v) => k -> Json.str(v) }))
    spark.stop()

    // ==== report ===============================================================
    val env = Seq(
      "workload" -> Json.str(w.name), "seed" -> seed.value.toString,
      "seconds" -> Json.num(seconds), "trace" -> traced.toString,
      "commit" -> Json.str(opts.getOrElse("commit", "unknown")),
      "nproc" -> nproc.toString,
      "jdk" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory.toString) ++ sparkEnv ++ Seq(
      "feeds" -> Json.obj(feeds.map(f => f.name -> Json.obj(Seq(
        "frames" -> f.frames.size.toString, "vr_rows" -> f.rows.size.toString)))),
      "replay_pass_ms" -> Json.obj(Workloads.methods.map(m =>
        m -> passes(m).map(p => Json.num(ms(p.ns))).mkString("[", ",", "]"))),
      "batch_job_ms" -> batchWallNs.map(ns => Json.num(ms(ns))).mkString("[", ",", "]"),
      "micro_batches" -> batchMs.size.toString,
      "reference_s" -> Json.num((refNs + streamRefNs + batchRefNs) / 1e9),
      "phase_end_s" -> Json.obj(phases.toSeq.map { case (k, v) => k -> Json.num(v) }))
    if (!traced) {
      put("setup_s", setupNs / 1e9, "s")
      put("stream.frames_per_s",
          feeds.size * Workloads.streamStep * batchMs.size / (batchMs.sum / 1e3), "frames/s")
      put("stream.batch_ms_p50", Stats.quantile(batchMs, 0.50), "ms")
      put("stream.batch_ms_p90", Stats.quantile(batchMs, 0.90), "ms")
      put("ops_ok_frac", 1.0 - ops.totalFailed.toDouble / ops.totalAttempted, "ratio")
    } else {
      // Reported per layer, without a bound: on a shared host their spread
      // between runs exceeds the largest bound a regression gate may use.
      Workloads.methods.foreach { m =>
        put(s"${m.toLowerCase}.frames_per_s", replay.framesPerPass / (best(m).ns / 1e9), "frames/s")
      }
      // Per frame, its fastest timed pass, for the reason the best pass counts.
      Seq("MFS", "SSG").foreach { m =>
        val l = passes(m).map(_.lat).transpose.map(_.min / 1e6)
        put(s"${m.toLowerCase}.frame_ms_p50", Stats.quantile(l, 0.50), "ms")
        put(s"${m.toLowerCase}.frame_ms_p99", Stats.quantile(l, 0.99), "ms")
      }
      put("batch.vr_rows_per_s", batchRows / (batchWallNs.min / 1e9), "rows/s")
    }

    println("env " + Json.obj(env))
    ops.attempted.keys.foreach { k =>
      val (a, f) = (ops.attempted(k), ops.failed(k))
      println(f"ops $k%-12s attempted=$a failed=$f ops_failed_frac=${f.toDouble / a}%.6f")
    }
    println(f"ops all          attempted=${ops.totalAttempted} failed=${ops.totalFailed} " +
            f"ops_failed_frac=${ops.totalFailed.toDouble / ops.totalAttempted}%.6f")
    metrics.foreach { case (k, (v, u)) => println(f"metric $k%-36s ${Json.num(v)} $u") }
    println(Json.obj(Seq(
      "correct" -> (ops.totalFailed == 0).toString,
      "attempted" -> ops.totalAttempted.toString,
      "failed" -> ops.totalFailed.toString,
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
  }

  /** Traced in-process passes: `video`, `query` and `core` layer metrics. */
  private def inProcessLayers(w: Workload, seed: Seed, feeds: Vector[Feed], querySets: Vector[QuerySet],
                              replay: Replay, frameRefs: Map[(String, String), Reference], ops: Ops,
                              untracedPassNs: String => Long,
                              genNs: Seq[Long]): Unit = {
    val spec = Workloads.spec
    put("video.generate_ms", Stats.median(genNs.map(ms)), "ms")
    put("video.vr_rows", feeds.map(_.rows.size).sum, "count")

    var tracedNs, plainNs = 0L
    val refStates = querySets.map { qs =>
      qs.label -> feeds.map(f => frameRefs((qs.label, f.name)).states.map(_.toLong).sum).sum
    }.toMap
    Workloads.methods.foreach { m =>
      val mk = m.toLowerCase
      val c = new PassCounts
      replay.pass(m, Some(frameRefs), mutable.ArrayBuffer.empty, Some(c))
      tracedNs += c.ns
      plainNs += untracedPassNs(m)
      put(s"core.$mk.busy_ms", ms(c.coreNs), "ms")
      allFeeds.foreach(f => put(s"core.$mk.$f.busy_ms", ms(c.coreByFeedNs.getOrElse(f, 0L)), "ms"))
      put(s"core.$mk.intersections", c.intersections, "count")
      put(s"core.$mk.ns_per_intersection", c.coreNs.toDouble / math.max(1L, c.intersections), "ns")
      put(s"core.$mk.visit_frac", c.intersections.toDouble / math.max(1L, c.statesBefore), "ratio")
      put(s"core.$mk.states_mean", c.statesAfter.toDouble / c.frames, "count")
      put(s"core.$mk.states_max", c.statesMax, "count")
      put(s"core.$mk.results", c.results, "count")
      put(s"query.$mk.self_ms", ms(c.ns - c.coreNs), "ms")
      put(s"query.$mk.matches", c.matches, "count")
      put(s"query.$mk.states_kept_frac", c.statesAfter.toDouble / refStates.values.sum, "ratio")
      Seq("nmin1", "nmin8").foreach { label =>
        val (matches, states) = c.byQuerySet.getOrElse(label, (0L, 0L))
        put(s"query.$mk.$label.matches", matches, "count")
        put(s"query.$mk.$label.states_kept_frac",
            refStates.get(label).map(states.toDouble / _).getOrElse(0.0), "ratio")
      }
    }
    put("trace.overhead_frac", tracedNs.toDouble / plainNs - 1, "ratio")

    // Proposition 1 over a whole feed: the timed prefix ends before reused ids
    // accumulate, so the traced run also checks MFS_O on the full feed, with
    // the Fig 9 query set at n_min=2. Each frame is an operation, and one
    // whose answers differ from MFS_E's is a failure.
    val (checked, matches, mismatched) = w.prop1Feed.map { name =>
      val f = Workloads.feed(name, w.idReuse, seed, frames = Int.MaxValue)
      val qs = Workloads.geOnly(2, seed)
      val ref = Replay.reference(f, qs, spec)
      val o = Replay.reference(f, qs, spec, "MFS", prune = true)
      val bad = f.frames.indices.count { i =>
        val ok = o.matches(i) == ref.matches(i)
        ops.record("prop1_frame", ok)
        !ok
      }
      (f.frames.size, ref.matches.map(_.size).sum, bad)
    }.getOrElse((0, 0, 0))
    put("query.prop1.frames", checked, "count")
    put("query.prop1.matches", matches, "count")
    put("query.prop1.mismatch_frames", mismatched, "count")
  }

  /** One traced batch job, the stream leg's progress reports, and the state
    * serialization probe: the `spark` layer metrics.
    */
  private def sparkLayers(feeds: Vector[Feed], spark: SparkSession,
                          ds: Dataset[VRRow], batchQs: QuerySet, batchPrune: Boolean,
                          batchRef: Set[SparkLegs.MatchKey], batchRows: Int,
                          stream: SparkLegs.Stream, ops: Ops, tracer: Tracer, nproc: Int): Unit = {
    val spec = Workloads.spec
    val listener = new SparkLegs.LegListener("batch")
    spark.sparkContext.addSparkListener(listener)
    spark.sparkContext.setLocalProperty("perfbench.leg", "batch")
    val span = tracer.open("spark.batch.job")
    val (out, wallNs) = timed(SparkLegs.batchJob(ds, spec, Workloads.batchMethod, batchQs, batchPrune))
    tracer.close(span, "rows_in" -> batchRows.toLong)
    ops.record("batch_job", out.contains(batchRef))
    spark.sparkContext.setLocalProperty("perfbench.leg", null)
    listener.drain()
    spark.sparkContext.removeSparkListener(listener)
    put("spark.batch.tasks", listener.tasks, "count")
    put("spark.batch.task_ms_max", ms(listener.taskNsMax), "ms")
    put("spark.batch.task_ms_sum", ms(listener.taskNs), "ms")
    put("spark.batch.gc_ms", listener.gcMs, "ms")
    put("spark.batch.shuffle_read_bytes", listener.shuffleReadBytes, "bytes")
    put("spark.batch.busy_frac", listener.taskNs.toDouble / (wallNs.toDouble * nproc), "ratio")

    val progress = SparkLegs.progress(stream.query)
    def medianDuration(k: String) = Stats.median(progress.map(SparkLegs.durationMs(_, k).toDouble))
    put("spark.stream.add_batch_ms", medianDuration("addBatch"), "ms")
    put("spark.stream.wal_ms", medianDuration("walCommit"), "ms")
    put("spark.stream.state_bytes_max",
        progress.flatMap(_.stateOperators.map(_.memoryUsedBytes)).maxOption.getOrElse(0L).toDouble, "bytes")
    put("spark.stream.state_rows",
        progress.lastOption.flatMap(_.stateOperators.headOption).map(_.numRowsTotal).getOrElse(0L).toDouble, "count")
    put("spark.stream.rows_out", stream.rowsOut.toDouble, "count")

    Seq("MFS", "SSG").foreach { m =>
      val p = SparkLegs.probeState(feeds, spec, m, Workloads.streamStep, Workloads.microBatches, tracer)
      val mk = m.toLowerCase
      put(s"spark.state.$mk.ser_bytes_max", p.bytesMax, "bytes")
      put(s"spark.state.$mk.ser_ms", ms(p.ns) / p.attempts, "ms")
      put(s"spark.state.$mk.ser_failures", p.failures, "count")
      put(s"spark.state.$mk.ser_attempts", p.attempts, "count")
    }
  }
}
