package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** The Marked Frame Set approach of §4.2.
  *
  * Like NAIVE, every maintained state is intersected with each arriving frame,
  * but each state also carries its key-frame marks (Definition 4 / Theorem 1)
  * and is discarded the moment all marked frames expire — i.e. the moment the
  * state's object set stops being an MCOS of any window frame set.
  *
  * Marks are stored in the compact equivalent form proved in DESIGN.md §3:
  * because frames expire oldest-first, "at least one marked frame is still in
  * the window" is equivalent to `maxMark >= winStart` where `maxMark` is the
  * maximum over generating frame subsets G (with ∩_{f∈G} O_f = ID_s) of
  * `min(G)`. The incremental update mirrors the paper's Frame Marking Rules:
  * a principal occurrence marks the arriving frame itself; a state regenerated
  * as an intersection inherits the best mark among its generators (the rule
  * that puts `*3` but not `*2` on `{AB}` in Table 2).
  *
  * Serialized form: the window spec, termination hook, counters and last
  * fid, then the state count and, per state in map order, its object set,
  * frames and `maxMark`.
  */
final class MfsGenerator(val spec: WindowSpec,
                         terminated: Option[ObjSet => Boolean] = None)
    extends McosGenerator {

  private final class MState(val ids: ObjSet, val frames: FrameSet, var maxMark: Int)

  private final class Contrib {
    var candMark: Int = -1
    val sources = mutable.ArrayBuffer.empty[MState]
  }

  @transient private var states = mutable.LinkedHashMap.empty[ObjSet, MState]
  private var interCount = 0L

  override def stateCount: Int = states.size
  override def intersections: Long = interCount

  /** Test hook: maintained states as (object set → (frames, best key-frame)). */
  private[core] def snapshot: Map[ObjSet, (Vector[Int], Int)] =
    states.view.map { case (ids, s) => ids -> (s.frames.toVector, s.maxMark) }.toMap

  override def processFrame(fid: Int, objects: ObjSet): Vector[McosResult] = {
    advanceTo(fid)
    val start = spec.winStart(fid)

    // Expire frames and prune invalid states: once every marked frame has
    // left the window the object set is no longer an MCOS of its frame set.
    val dead = mutable.ArrayBuffer.empty[ObjSet]
    states.valuesIterator.foreach { s =>
      if (s.maxMark < start) dead += s.ids
      else s.frames.expire(start)
    }
    dead.foreach(states.remove)

    if (objects.nonEmpty) {
      val contribs = mutable.LinkedHashMap.empty[ObjSet, Contrib]
      states.valuesIterator.foreach { s =>
        interCount += 1
        val inter = s.ids & objects
        if (inter.nonEmpty) {
          val c = contribs.getOrElseUpdate(inter, new Contrib)
          if (s.maxMark > c.candMark) c.candMark = s.maxMark
          c.sources += s
        }
      }
      // Frame Marking Rule 1: the arriving frame is always a key frame of the
      // principal state it creates.
      val cp = contribs.getOrElseUpdate(objects, new Contrib)
      if (fid > cp.candMark) cp.candMark = fid

      contribs.foreach { case (ids, c) =>
        states.get(ids) match {
          case Some(s) =>
            s.frames.append(fid)
            if (c.candMark > s.maxMark) s.maxMark = c.candMark
          case None =>
            if (!terminated.exists(_(ids))) {
              val fs = new FrameSet
              c.sources.foreach(src => fs.mergeFrom(src.frames))
              fs.append(fid)
              states.update(ids, new MState(ids, fs, c.candMark))
            }
        }
      }
    }

    // Every maintained state is valid, so the Result State Set is just the
    // duration filter — no output-time dedup is needed (contrast NAIVE).
    states.valuesIterator
      .filter(_.frames.size >= spec.d)
      .map(s => McosResult(fid, s.ids, s.frames.toVector))
      .toVector
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
      val s = new MState(ObjSet.read(in), new FrameSet, -1)
      s.frames.readFrom(in)
      s.maxMark = in.readInt()
      states.update(s.ids, s)
    }
  }
}
