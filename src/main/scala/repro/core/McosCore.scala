package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** One maintained state: its object set, its frames in the window, and its
  * key-frame marks in the compact form of DESIGN.md §3 (the state is valid
  * while `maxMark >= winStart`).
  */
private[core] class McosState(val ids: ObjSet) {
  val frames = new FrameSet
  var maxMark: Int = -1
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

/** The first-attempt maintenance of §4.2.2 that NAIVE, MFS and SSG share.
  * Per frame it
  *
  *  1. visits states, intersecting each with the arriving object set and
  *     coalescing equal intersections ([[visit]]; by default every state in
  *     map order, dropping a state once `maxMark < winStart`);
  *  2. adds the arriving object set as the principal contribution, whose
  *     key frame is the arriving frame itself (Frame Marking Rule 1);
  *  3. applies each contribution in order: an existing state takes the frame
  *     and the better mark, a missing one is created from the merged frame
  *     sets of its sources unless the §5.3 hook `terminated` rejects it;
  *  4. emits the Result State Set ([[results]]; by default every state with at
  *     least `d` frames, in map order).
  *
  * Serialized form of this class's part: the termination hook, intersection
  * counter and last fid, then the state count and per state in map order its
  * object set words, live frames and `maxMark`. The generator class's part
  * follows: its window spec and, for SSG, the graph.
  */
abstract class McosCore[S <: McosState](terminated: Option[ObjSet => Boolean])
    extends McosGenerator {

  @transient protected var states = mutable.LinkedHashMap.empty[ObjSet, S]
  private var interCount = 0L

  final override def stateCount: Int = states.size
  final override def intersections: Long = interCount

  /** Test hook: maintained states as (object set → (frames, best key-frame)). */
  private[core] def snapshot: Map[ObjSet, (Vector[Int], Int)] =
    states.view.map { case (ids, s) => ids -> (s.frames.toVector, s.maxMark) }.toMap

  protected def newState(ids: ObjSet): S

  /** Step 1: intersect the states this generator visits with `objects` through
    * [[contribute]], expiring their frames to `start` on the way.
    */
  protected def visit(fid: Int, start: Int, objects: ObjSet,
                      contribs: mutable.LinkedHashMap[ObjSet, Contrib[S]]): Unit =
    visitAll(start, objects, contribs, dropInvalid = true)

  /** Step 4: the Result State Set of frame `fid`. */
  protected def results(fid: Int, start: Int, objects: ObjSet,
                        contribs: mutable.LinkedHashMap[ObjSet, Contrib[S]]): Vector[McosResult] = {
    val d = spec.d
    states.valuesIterator
      .filter(_.frames.size >= d)
      .map(s => McosResult(fid, s.ids, s.frames.toVector))
      .toVector
  }

  /** Visit every state in map order; with `dropInvalid`, a state whose key
    * frames have all left the window is removed instead (Theorem 1).
    */
  protected final def visitAll(start: Int, objects: ObjSet,
                               contribs: mutable.LinkedHashMap[ObjSet, Contrib[S]],
                               dropInvalid: Boolean): Unit = {
    val dead = mutable.ArrayBuffer.empty[ObjSet]
    states.valuesIterator.foreach { s =>
      if (dropInvalid && s.maxMark < start) dead += s.ids
      else {
        s.frames.expire(start)
        if (objects.nonEmpty) contribute(s, objects, contribs)
      }
    }
    dead.foreach(states.remove)
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
    visit(fid, start, objects, contribs)
    if (objects.nonEmpty) {
      val cp = contribs.getOrElseUpdate(objects, new Contrib[S])
      if (fid > cp.candMark) cp.candMark = fid
      contribs.foreach { case (ids, c) =>
        states.get(ids) match {
          case Some(s) =>
            // A state the visit skipped has not expired its frames yet.
            s.frames.expire(start)
            s.frames.append(fid)
            if (c.candMark > s.maxMark) s.maxMark = c.candMark
            c.state = s
          case None =>
            if (!terminated.exists(_(ids))) {
              val s = newState(ids)
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
    results(fid, start, objects, contribs)
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
      val s = newState(ObjSet.read(in))
      s.frames.readFrom(in)
      s.maxMark = in.readInt()
      states.update(s.ids, s)
    }
  }
}
