package repro.bench

import scala.collection.mutable
import repro.core.{McosGenerator, ObjSet, WindowSpec}
import repro.query.{CnfQuery, QueryPipeline}
import repro.video.{Profiles, SynthVideo, VideoStream}

/** Shared machinery for the §6 experiment reproductions.
  *
  * Timings follow the paper's methodology: the (sequential, per-feed) state
  * maintenance is what is measured — a wall-clock loop over frames through a
  * generator or query pipeline, after a JIT warm-up pass. Every bench prints
  * aligned tables (one per paper table/figure; Figs 4–9 through `sweep`), and
  * `sbt -batch "bench/test"` regenerates what EXPERIMENTS.md compares.
  */
object BenchHarness {
  /** Generated evaluation streams, cached across bench suites. */
  private val cache = mutable.HashMap.empty[(String, Int), VideoStream]
  def stream(name: String, idReuse: Int = 0): VideoStream = synchronized {
    cache.getOrElseUpdate((name, idReuse), SynthVideo.generate(Profiles.byName(name), idReuse))
  }

  val datasets: Vector[String] = Profiles.all.map(_.name)
  val methods: Seq[String] = Seq("NAIVE", "MFS", "SSG")

  final case class RunStats(ms: Double, states: Int, intersections: Long, results: Long)

  /** Time a fresh generator over the first `maxFrames` frames of a stream. */
  def runMcos(s: VideoStream, spec: WindowSpec, method: String,
              maxFrames: Int = Int.MaxValue): RunStats = {
    val gen = McosGenerator(method, spec)
    val sets = s.frames.take(maxFrames).map(objs => ObjSet.from(objs.map(_._1)))
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
                  queries: Vector[CnfQuery], pruneByEval: Boolean): RunStats = {
    val frames = s.frames
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

  /** One small warm-up so JIT noise does not dominate the first cell. */
  def warmUp(): Unit = methods.foreach(m => runMcos(stream("M2"), WindowSpec(60, 48), m, maxFrames = 200))

  /** A sweep's cells, one row per (dataset, axis value) in run order; `apply`
    * and `ms` give one dataset's cells of one column in axis order.
    */
  final case class Sweep(rows: Seq[(String, Int, Map[String, RunStats])]) {
    def apply(dataset: String, column: String): Vector[RunStats] =
      rows.collect { case (`dataset`, _, cells) => cells(column) }.toVector
    def ms(dataset: String, column: String): Vector[Double] = apply(dataset, column).map(_.ms)
  }

  /** Warm up, then time one cell per dataset, axis value and column, in that
    * order (timings depend on JIT order), with `run(dataset, value, column)`.
    * Prints the figure's table: `Dataset`, the axis, the columns' ms and one
    * speedup column `a/b` per `ratios` pair (an unpruned `_E` suffix is left
    * out of its label: `NAIVE_E -> MFS_O` prints as `NAIVE/MFS_O`).
    */
  def sweep(title: String, axis: String, columns: Seq[String], ratios: Seq[(String, String)],
            datasets: Seq[String], values: String => Seq[Int], note: String)
           (run: (String, Int, String) => RunStats): Sweep = {
    warmUp()
    val result = Sweep(for (d <- datasets; v <- values(d))
      yield (d, v, columns.map(c => c -> run(d, v, c)).toMap))
    def label(c: String) = c.stripSuffix("_E")
    printTable(title, Seq("Dataset", axis) ++ columns ++ ratios.map { case (a, b) => s"${label(a)}/${label(b)}" },
      result.rows.map { case (d, v, cells) =>
        Seq(d, v.toString) ++ columns.map(c => f"${cells(c).ms}%.1f") ++
          ratios.map { case (a, b) => f"${cells(a).ms / cells(b).ms}%.2fx" }
      }, note)
    result
  }

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
}
