package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** The NAIVE baseline of §6.2.
  *
  * Keeps one entry per object set ever generated, mapping it to the set of
  * window frames in which it appears. Nothing is pruned until a frame set
  * empties, so invalid states (object sets that stopped being maximal) linger
  * and are intersected against every arriving frame — that lingering cost is
  * exactly what MFS/SSG remove. At output time the duration filter is applied
  * first and then non-maximal object sets are discarded ("check whether they
  * share the same frame set … keep the object set with the maximum size"),
  * implemented as a dominance scan so it is exact even for partially-tracked
  * lingerers.
  *
  * Serialized form: the window spec, termination hook, counters and last
  * fid, then the state count and, per state in map order, its object set
  * and frames.
  */
final class NaiveGenerator(val spec: WindowSpec,
                           terminated: Option[ObjSet => Boolean] = None)
    extends McosGenerator {

  private final class NState(val ids: ObjSet, val frames: FrameSet)

  @transient private var states = mutable.LinkedHashMap.empty[ObjSet, NState]
  private var interCount = 0L

  override def stateCount: Int = states.size
  override def intersections: Long = interCount

  override def processFrame(fid: Int, objects: ObjSet): Vector[McosResult] = {
    advanceTo(fid)
    val start = spec.winStart(fid)

    // Expire old frames. The baseline has no removal mechanism at all — an
    // object set, once seen, is kept (and intersected with every arriving
    // frame) for the rest of the feed even after its frame set empties.
    // Removing such states early is precisely what MFS/SSG contribute.
    states.valuesIterator.foreach(_.frames.expire(start))

    if (objects.nonEmpty) {
      // First attempt maintenance (§4.2.2): intersect the arriving object set
      // with every maintained state; identical intersections are coalesced so
      // each distinct object set keeps a single state.
      val contribs = mutable.LinkedHashMap.empty[ObjSet, mutable.ArrayBuffer[NState]]
      states.valuesIterator.foreach { s =>
        interCount += 1
        val inter = s.ids & objects
        if (inter.nonEmpty)
          contribs.getOrElseUpdate(inter, mutable.ArrayBuffer.empty) += s
      }
      contribs.getOrElseUpdate(objects, mutable.ArrayBuffer.empty)

      contribs.foreach { case (ids, sources) =>
        states.get(ids) match {
          case Some(s) => s.frames.append(fid)
          case None =>
            if (!terminated.exists(_(ids))) {
              val fs = new FrameSet
              sources.foreach(src => fs.mergeFrom(src.frames))
              fs.append(fid)
              states.update(ids, new NState(ids, fs))
            }
        }
      }
    }

    collectResults(fid)
  }

  /** Duration filter then maximality: drop any satisfied state dominated by a
    * strictly larger object set appearing in at least the same frames.
    */
  private def collectResults(fid: Int): Vector[McosResult] = {
    val satisfied = states.valuesIterator
      .filter(_.frames.size >= spec.d)
      .map(s => (s.ids, s.frames.toVector))
      .toVector
    satisfied
      .filterNot { case (ids, frames) =>
        satisfied.exists { case (ids2, frames2) =>
          ids != ids2 && ids.subsetOf(ids2) && isSubset(frames, frames2)
        }
      }
      .map { case (ids, frames) => McosResult(fid, ids, frames) }
  }

  private def isSubset(a: Vector[Int], b: Vector[Int]): Boolean = {
    if (a.size > b.size) return false
    var i = 0; var j = 0
    while (i < a.size && j < b.size) {
      if (a(i) == b(j)) { i += 1; j += 1 }
      else if (a(i) > b(j)) j += 1
      else return false
    }
    i == a.size
  }

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    out.writeInt(states.size)
    states.valuesIterator.foreach { s =>
      ObjSet.write(out, s.ids)
      s.frames.writeTo(out)
    }
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    states = mutable.LinkedHashMap.empty
    (0 until in.readInt()).foreach { _ =>
      val s = new NState(ObjSet.read(in), new FrameSet)
      s.frames.readFrom(in)
      states.update(s.ids, s)
    }
  }
}
