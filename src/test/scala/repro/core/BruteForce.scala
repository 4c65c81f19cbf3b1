package repro.core

import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** One input frame of the structured relation VR, pre-grouped: the set of
  * object ids detected in frame `fid`.
  */
final case class Frame(fid: Int, objects: ObjSet)

/** Reference MCOS computation by exhaustive enumeration — the correctness
  * oracle the incremental generators are differentially tested against.
  *
  * For a window, the valid states of §2 are exactly the formal concepts of the
  * frames×objects incidence relation: object set `S` paired with
  * `extent(S) = {f : S ⊆ O_f}` such that `S = ∩_{f ∈ extent(S)} O_f`.
  * All intents are obtained by closing the distinct frame object-sets under
  * pairwise intersection. Exponential in the worst case — test-scale only.
  */
object BruteForce {

  /** All satisfied MCOS for the window of frames ending at `fid` (inclusive),
    * mirroring [[McosGenerator.processFrame]]'s output at that frame.
    *
    * @param window frames inside the window, ascending fid, empties allowed
    */
  def mcosAt(fid: Int, window: Seq[Frame], spec: WindowSpec): Set[McosResult] = {
    val frames = window.filter(f => f.fid > fid - spec.w && f.fid <= fid && f.objects.nonEmpty)
    if (frames.isEmpty) return Set.empty

    // Close the distinct object sets under intersection.
    val intents = mutable.Set.empty[ObjSet]
    frames.foreach(f => intents += f.objects)
    var frontier: Set[ObjSet] = intents.toSet
    while (frontier.nonEmpty) {
      val next = mutable.Set.empty[ObjSet]
      for (a <- frontier; b <- intents) {
        val i = a & b
        if (i.nonEmpty && !intents.contains(i)) next += i
      }
      intents ++= next
      frontier = next.toSet
    }

    intents.iterator.flatMap { s =>
      val extent = frames.collect { case f if s.subsetOf(f.objects) => f.fid }
      val closure = frames.iterator
        .filter(f => s.subsetOf(f.objects))
        .map(_.objects)
        .reduce(_ & _)
      if (closure == s && extent.size >= spec.d)
        Some(McosResult(fid, s, extent.toVector))
      else None
    }.toSet
  }

  /** Run a whole stream through the reference, producing the per-frame result
    * sets an incremental generator should emit.
    */
  def run(stream: Seq[Frame], spec: WindowSpec): Vector[Set[McosResult]] = {
    val buf = mutable.ArrayDeque.empty[Frame]
    stream.iterator.map { f =>
      buf.append(f)
      while (buf.nonEmpty && buf.head.fid <= f.fid - spec.w) buf.removeHead()
      mcosAt(f.fid, buf.toSeq, spec)
    }.toVector
  }
}
