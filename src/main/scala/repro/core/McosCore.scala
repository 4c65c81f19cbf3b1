package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** One maintained state: its object set, its frames in the window, its
  * key-frame marks in the compact form of DESIGN.md §3 (the state is valid
  * while `maxMark >= winStart`), and whether the core has killed it.
  */
private[core] class McosState(val ids: ObjSet, w: Int) {
  val frames = new FrameSet(w)
  var maxMark: Int = -1
  var alive = true
}

/** What the visited states contribute to one intersection object set: the
  * best key-frame mark among them and the states themselves, whose frame sets
  * a newly created state merges. After the apply step, `state` is the state
  * with this object set (null if §5.3 terminated it) and `created` tells
  * whether this frame created it.
  */
private[core] final class Contrib[S <: McosState] {
  var candMark: Int = -1
  val sources = mutable.ArrayBuffer.empty[S]
  var state: S = _
  var created = false
}

/** The first-attempt maintenance of §4.2.2 that NAIVE, MFS and SSG share,
  * and the whole life of a state: only [[expireOrKill]] ends it. Per frame it
  *
  *  1. visits states, intersecting each with the arriving object set and
  *     coalescing equal intersections ([[visit]]; by default every state in
  *     map order, killing instead a state that is no longer valid);
  *  2. adds the arriving object set as the principal contribution, whose
  *     key frame is the arriving frame itself (Frame Marking Rule 1);
  *  3. applies each contribution in order: an existing state takes the frame
  *     and the better mark, a missing one is created from the merged frame
  *     sets of its sources unless the §5.3 hook `terminated` rejects it;
  *  4. makes one result pass in map order ([[results]]): a state with at
  *     least `d` stored frames, or every state when `fid % w == 0`, is killed
  *     if it is no longer valid and otherwise has its expired frames dropped;
  *     each valid state with `d` frames is emitted.
  *
  * A state is valid while `maxMark >= winStart` ([[valid]]). Killed states
  * leave `states` after steps 1 and 4, each time those of that step (step 3
  * may re-create step 1's). With `keepInvalid` (NAIVE) none dies, and step 4's
  * validity test is its output filter; for MFS and SSG a live state is valid.
  *
  * Serialized form of this class's part: the window spec, the termination
  * hook, `keepInvalid`, intersection counter and last fid, then the state
  * count and per state in map order its object set words, its frames (the
  * window's end and the mask words, or one int when empty) and `maxMark`.
  * The spec is in this part because reading the frames needs `w`, and Java
  * reads this part before the generator class's, which for SSG holds the
  * graph.
  */
abstract class McosCore[S <: McosState](val spec: WindowSpec,
                                         terminated: Option[ObjSet => Boolean],
                                         keepInvalid: Boolean = false)
    extends McosGenerator {

  @transient protected var states = mutable.LinkedHashMap.empty[ObjSet, S]
  /** The states killed in this frame, in kill order. */
  @transient protected var killed = mutable.ArrayBuffer.empty[S]
  private var interCount = 0L

  final override def stateCount: Int = states.size
  final override def intersections: Long = interCount

  /** Test hook: maintained states as (object set → (frames, best key-frame)). */
  private[core] def snapshot: Map[ObjSet, (Vector[Int], Int)] =
    states.view.map { case (ids, s) => ids -> (s.frames.toVector, s.maxMark) }.toMap

  protected def newState(ids: ObjSet, w: Int): S

  /** Some key frame of `s` is still in the window that begins at `start`. */
  private def valid(s: S, start: Int): Boolean = s.maxMark >= start

  /** The one kill path: kill `s` once it is not [[valid]] (never with
    * `keepInvalid`), else drop its frames before `start`. Returns whether `s`
    * lives.
    */
  protected final def expireOrKill(s: S, start: Int): Boolean = {
    if (!keepInvalid && !valid(s, start)) {
      s.alive = false
      killed += s
    } else s.frames.expire(start)
    s.alive
  }

  /** Step 1: intersect the states this generator visits with `objects` through
    * [[contribute]], expiring or killing them on the way.
    */
  protected def visit(fid: Int, start: Int, objects: ObjSet,
                      contribs: mutable.LinkedHashMap[ObjSet, Contrib[S]]): Unit = {
    val intersect = objects.nonEmpty
    states.valuesIterator.foreach { s =>
      if (expireOrKill(s, start) && intersect) contribute(s, objects, contribs)
    }
  }

  /** Step 4: the result pass, whose output is the Result State Set. */
  protected def results(fid: Int, start: Int, objects: ObjSet,
                        contribs: mutable.LinkedHashMap[ObjSet, Contrib[S]]): Vector[McosResult] = {
    val d = spec.d
    val sweep = fid % spec.w == 0
    val out = Vector.newBuilder[McosResult]
    states.valuesIterator.foreach { s =>
      if ((sweep || s.frames.size >= d) && expireOrKill(s, start) &&
          valid(s, start) && s.frames.size >= d)
        out += McosResult(fid, s.ids, s.frames.toVector)
    }
    out.result()
  }

  /** Intersect `s` with `objects` and, if the intersection is not empty, add
    * `s` to its contribution. Returns the intersection.
    */
  protected final def contribute(s: S, objects: ObjSet,
                                 contribs: mutable.LinkedHashMap[ObjSet, Contrib[S]]): ObjSet = {
    interCount += 1
    val inter = s.ids & objects
    if (inter.nonEmpty) {
      val c = contribs.getOrElseUpdate(inter, new Contrib[S])
      if (s.maxMark > c.candMark) c.candMark = s.maxMark
      c.sources += s
    }
    inter
  }

  final override def processFrame(fid: Int, objects: ObjSet): Vector[McosResult] = {
    advanceTo(fid)
    val start = spec.winStart(fid)
    val contribs = mutable.LinkedHashMap.empty[ObjSet, Contrib[S]]
    killed = mutable.ArrayBuffer.empty
    visit(fid, start, objects, contribs)
    killed.foreach(s => states.remove(s.ids))
    val visitKills = killed.size
    if (objects.nonEmpty) {
      val cp = contribs.getOrElseUpdate(objects, new Contrib[S])
      if (fid > cp.candMark) cp.candMark = fid
      contribs.foreach { case (ids, c) =>
        states.get(ids) match {
          case Some(s) =>
            s.frames.append(fid)
            if (c.candMark > s.maxMark) s.maxMark = c.candMark
            c.state = s
          case None =>
            if (!terminated.exists(_(ids))) {
              val s = newState(ids, spec.w)
              c.sources.foreach(src => s.frames.mergeFrom(src.frames))
              s.frames.append(fid)
              s.maxMark = c.candMark
              states.update(ids, s)
              c.state = s
              c.created = true
            }
        }
      }
    }
    val out = results(fid, start, objects, contribs)
    killed.view.drop(visitKills).foreach(s => states.remove(s.ids))
    out
  }

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    out.writeInt(states.size)
    states.valuesIterator.foreach { s =>
      ObjSet.write(out, s.ids)
      s.frames.writeTo(out)
      out.writeInt(s.maxMark)
    }
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    states = mutable.LinkedHashMap.empty
    (0 until in.readInt()).foreach { _ =>
      val s = newState(ObjSet.read(in), spec.w)
      s.frames.readFrom(in)
      s.maxMark = in.readInt()
      states.update(s.ids, s)
    }
  }
}
