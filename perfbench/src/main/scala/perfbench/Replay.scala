package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core.{McosGenerator, McosResult, WindowSpec}
import repro.core.ObjSet.ObjSet
import repro.query.{QueryMatch, QueryPipeline}

/** Per-frame answers of one (query set, feed) replay: the reference the timed
  * replays are checked against, and its state counts.
  */
final case class Reference(matches: Array[Set[QueryMatch]], states: Array[Int])

/** Failure counts per kind of operation: a frame, a batch job, a micro-batch. */
final class Ops {
  val attempted: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty
  val failed: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty
  def record(kind: String, ok: Boolean): Unit = {
    attempted(kind) = attempted.getOrElse(kind, 0L) + 1
    failed(kind) = failed.getOrElse(kind, 0L) + (if (ok) 0 else 1)
  }
  def totalAttempted: Long = attempted.values.sum
  def totalFailed: Long = failed.values.sum
}

/** Times and counters of one traced pass of one method, summed over feeds
  * and query sets: `ns` inside `QueryPipeline.processFrame`, `coreNs` inside
  * the calls it makes into its generator.
  */
final class PassCounts {
  var ns = 0L
  var coreNs = 0L
  var frames = 0L
  var matches = 0L
  var results = 0L
  var intersections = 0L
  var statesBefore = 0L
  var statesAfter = 0L
  var statesMax = 0L
  val coreByFeedNs: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty
  /** Per query set: (matches, summed states after each frame). */
  val byQuerySet: mutable.LinkedHashMap[String, (Long, Long)] = mutable.LinkedHashMap.empty

  def add(feed: String, querySet: String, dtNs: Long, core: TimedGenerator, before: Int, after: Int,
          inter: Long, n: Int): Unit = {
    ns += dtNs
    coreNs += core.lastNs
    frames += 1
    matches += n
    results += core.lastResults
    intersections += inter
    statesBefore += before
    statesAfter += after
    statesMax = math.max(statesMax, after.toLong)
    coreByFeedNs(feed) = coreByFeedNs.getOrElse(feed, 0L) + core.lastNs
    val (o, s) = byQuerySet.getOrElse(querySet, (0L, 0L))
    byQuerySet(querySet) = (o + n, s + after)
  }
}

/** A generator that times the calls a `QueryPipeline` makes into it: the
  * `core` layer's share of a traced pipeline pass. For an `_O` pipeline the
  * §5.3 termination hook runs inside these calls, so its verdicts count as
  * `core` time.
  */
final class TimedGenerator(inner: McosGenerator, tracer: Tracer) extends McosGenerator {
  /** Span of the pipeline call the next generator call belongs to. */
  var parent: Int = -1
  var lastNs = 0L
  var lastResults = 0

  def spec: WindowSpec = inner.spec
  def stateCount: Int = inner.stateCount
  def intersections: Long = inner.intersections

  def processFrame(fid: Int, objects: ObjSet): Vector[McosResult] = {
    lastNs = 0L
    lastResults = 0
    val span = tracer.open("core.processFrame", parent)
    val inter0 = inner.intersections
    val t0 = System.nanoTime()
    val out = inner.processFrame(fid, objects)
    lastNs = System.nanoTime() - t0
    lastResults = out.size
    tracer.close(span, "results" -> out.size.toLong, "states" -> inner.stateCount.toLong,
                 "intersections" -> (inner.intersections - inter0))
    out
  }
}

object TimedGenerator {
  /** Put a [[TimedGenerator]] between `pipe` and the generator it built. The
    * pipeline offers no hook for this, so its one generator field, found by
    * type, is swapped through reflection before the first frame.
    */
  def install(pipe: QueryPipeline, tracer: Tracer): TimedGenerator = {
    val fields = classOf[QueryPipeline].getDeclaredFields
      .filter(f => classOf[McosGenerator].isAssignableFrom(f.getType))
    require(fields.length == 1, s"QueryPipeline has ${fields.length} generator fields, expected one")
    val field = fields.head
    field.setAccessible(true)
    val timed = new TimedGenerator(field.get(pipe).asInstanceOf[McosGenerator], tracer)
    field.set(pipe, timed)
    timed
  }
}

/** In-process replay of the §5 pipeline: every frame of every feed goes
  * through `QueryPipeline.processFrame` in fid order, closed loop (the next
  * frame is fed when the call returns), and is checked against a reference.
  */
final class Replay(w: Workload, feeds: Vector[Feed], querySets: Vector[QuerySet],
                   spec: WindowSpec, ops: Ops, tracer: Tracer) {

  def framesPerPass: Int = feeds.map(_.frames.size).sum * querySets.size

  /** MFS_E answers: the reference for `_E` (all methods agree) and for `_O`
    * (Proposition 1: pruning must not change answers).
    */
  def references(): Map[(String, String), Reference] =
    (for (qs <- querySets; f <- feeds) yield (qs.label, f.name) -> Replay.reference(f, qs, spec)).toMap

  /** One pass of `method` over all query sets and feeds. Adds each frame's
    * in-call latency (ns) under the first query set to `lat` and returns the
    * summed in-call ns. With a `counts` sink the pass is traced: a span per
    * pipeline call and per generator call within it, counters per frame.
    * Without `refs` (the warm-up) outputs are not checked.
    */
  def pass(method: String, refs: Option[Map[(String, String), Reference]],
           lat: mutable.ArrayBuffer[Long], counts: Option[PassCounts] = None): Long = {
    var total = 0L
    for (qs <- querySets; f <- feeds) {
      val ref = refs.map(_((qs.label, f.name)))
      val pipe = new QueryPipeline(qs.queries, spec, method, w.prunes(method))
      val traced = counts.map(c => (c, TimedGenerator.install(pipe, tracer)))
      val passSpan = if (traced.isDefined) tracer.open(s"replay.${method.toLowerCase}") else -1
      var i = 0
      while (i < f.frames.size) {
        val (fid, objs) = f.frames(i)
        val span = if (traced.isDefined) tracer.open("query.processFrame", passSpan) else -1
        traced.foreach(_._2.parent = span)
        val before = pipe.stateCount
        val inter0 = pipe.intersections
        val t0 = System.nanoTime()
        val out = try pipe.processFrame(fid, objs) catch {
          case NonFatal(_) | _: StackOverflowError => null
        }
        val dt = System.nanoTime() - t0
        if (qs eq querySets.head) lat += dt
        total += dt
        val n = if (out == null) 0 else out.size
        traced.foreach { case (c, core) =>
          val inter = pipe.intersections - inter0
          tracer.close(span, "matches" -> n, "states" -> pipe.stateCount, "intersections" -> inter)
          c.add(f.name, qs.label, dt, core, before, pipe.stateCount, inter, n)
        }
        ref.foreach(r => ops.record("frame", out != null && out.toSet == r.matches(i)))
        i += 1
      }
      tracer.close(passSpan)
    }
    total
  }
}

object Replay {
  /** One feed replayed through a pipeline, its answers and state counts. */
  def reference(f: Feed, qs: QuerySet, spec: WindowSpec, method: String = "MFS",
                prune: Boolean = false): Reference = {
    val pipe = new QueryPipeline(qs.queries, spec, method, prune)
    val matches = Array.ofDim[Set[QueryMatch]](f.frames.size)
    val states = Array.ofDim[Int](f.frames.size)
    f.frames.indices.foreach { i =>
      val (fid, objs) = f.frames(i)
      matches(i) = pipe.processFrame(fid, objs).toSet
      states(i) = pipe.stateCount
    }
    Reference(matches, states)
  }
}
