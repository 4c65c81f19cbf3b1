package repro.bench

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core.{McosGenerator, WindowSpec}
import repro.core.ObjSet
import repro.query.{CnfQuery, QueryPipeline}
import repro.video.{Profiles, SynthVideo, VideoStream}

/** Shared machinery for the §6 experiment reproductions.
  *
  * Timings follow the paper's methodology: the (sequential, per-feed) state
  * maintenance is what is measured — a wall-clock loop over frames through a
  * generator or query pipeline, after a JIT warm-up pass. Results print as
  * aligned tables (one bench per paper table/figure) so `bench_output.txt`
  * can be diffed against EXPERIMENTS.md.
  */
object BenchHarness {

  /** Generated evaluation streams, cached across bench suites. */
  private val cache = mutable.HashMap.empty[(String, Int), VideoStream]
  def stream(name: String, idReuse: Int = 0): VideoStream = synchronized {
    cache.getOrElseUpdate((name, idReuse), SynthVideo.generate(Profiles.byName(name), idReuse))
  }

  val datasets: Vector[String] = Profiles.all.map(_.name)

  final case class RunStats(ms: Double, states: Int, intersections: Long, results: Long)

  /** Time MCOS generation over the first `maxFrames` frames of a stream. */
  def runMcos(s: VideoStream, spec: WindowSpec, method: String,
              maxFrames: Int = Int.MaxValue): RunStats =
    runGenerator(s, McosGenerator(method, spec), maxFrames)

  /** Time a fresh generator over the first `maxFrames` frames of a stream. */
  def runGenerator(s: VideoStream, gen: McosGenerator, maxFrames: Int = Int.MaxValue): RunStats = {
    val frames = s.frames.take(maxFrames)
    val sets = frames.map(objs => ObjSet.from(objs.map(_._1)))
    var results = 0L
    val t0 = System.nanoTime()
    var fid = 0
    while (fid < sets.length) {
      results += gen.processFrame(fid, sets(fid)).size
      fid += 1
    }
    RunStats((System.nanoTime() - t0) / 1e6, gen.stateCount, gen.intersections, results)
  }

  /** Time the full §5 pipeline (MCOS generation + CNFEvalE). */
  def runPipeline(s: VideoStream, spec: WindowSpec, method: String,
                  queries: Vector[CnfQuery], pruneByEval: Boolean,
                  maxFrames: Int = Int.MaxValue): RunStats = {
    val frames = s.frames.take(maxFrames)
    val pipe = new QueryPipeline(queries, spec, method, pruneByEval)
    var results = 0L
    val t0 = System.nanoTime()
    var fid = 0
    while (fid < frames.length) {
      results += pipe.processFrame(fid, frames(fid)).size
      fid += 1
    }
    RunStats((System.nanoTime() - t0) / 1e6, pipe.stateCount, pipe.intersections, results)
  }

  /** Java-serialized size of `obj` in bytes, written on a fresh thread with
    * the JVM's default stack size (as a Spark task thread has); -1 if the
    * write fails, e.g. by overflowing that stack.
    */
  def serializedBytes(obj: AnyRef): Long = {
    var bytes = -1L
    val t = new Thread(() => {
      val bos = new ByteArrayOutputStream()
      try {
        val out = new ObjectOutputStream(bos)
        out.writeObject(obj)
        out.close()
        bytes = bos.size
      } catch { case NonFatal(_) | _: StackOverflowError => }
    })
    t.start()
    t.join()
    bytes
  }

  /** One small warm-up so JIT noise does not dominate the first cell. */
  def warmUp(): Unit = {
    val s = stream("M2")
    Seq("NAIVE", "MFS", "SSG").foreach(m => runMcos(s, WindowSpec(60, 48), m, maxFrames = 200))
  }

  // ---- table printing ----------------------------------------------------

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]],
                 note: String = ""): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"== $title ==")
    if (note.nonEmpty) println(note)
    println(fmt(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
    println()
  }

  def ms(x: Double): String = f"$x%.1f"

  /** speedup of NAIVE over a method, the paper's headline metric. */
  def speedup(naiveMs: Double, methodMs: Double): String =
    f"${naiveMs / methodMs}%.2fx"
}
