package repro.core

import java.io.{DataInput, DataOutput}
import scala.collection.immutable.BitSet

/** Shared model for MCOS generation (paper §2–§4).
  *
  * Object identifiers are dense non-negative ints (the video substrate
  * assigns them); an object set is an [[scala.collection.immutable.BitSet]]
  * so set intersection — the hot operation of every algorithm in the paper —
  * is a word-parallel AND.
  */
object ObjSet {
  type ObjSet = BitSet
  val empty: ObjSet = BitSet.empty
  def of(ids: Int*): ObjSet = from(ids)

  /** @throws IllegalArgumentException naming the first negative id */
  def from(ids: Iterable[Int]): ObjSet = {
    for (id <- ids if id < 0)
      throw new IllegalArgumentException(s"object id $id is negative: ids must be non-negative")
    BitSet.fromSpecific(ids)
  }

  /** Write `s` as its bitmask: the word count, then each 64-bit word. */
  private[core] def write(out: DataOutput, s: ObjSet): Unit = {
    val words = s.toBitMask
    out.writeInt(words.length)
    words.foreach(out.writeLong)
  }

  /** Read an object set written by [[write]]. */
  private[core] def read(in: DataInput): ObjSet =
    BitSet.fromBitMaskNoCopy(Array.fill(in.readInt())(in.readLong()))
}

import ObjSet.ObjSet

/** Sliding-window query context (paper §2): the window spans the most recent
  * `w` frames and a state is *satisfied* once its frame set has at least `d`
  * frames.
  *
  * @param w window size in frames, `w >= 1`
  * @param d duration threshold in frames, `1 <= d <= w`
  */
final case class WindowSpec(w: Int, d: Int) {
  require(w >= 1, s"window size must be positive, got $w")
  require(d >= 1 && d <= w, s"duration must be in [1,$w], got $d")
  /** Oldest frame id still inside the window that ends at frame `fid`. */
  def winStart(fid: Int): Int = fid - w + 1
}

/** A satisfied, valid state emitted by MCOS generation at frame `fid`:
  * `objects` is an MCOS of `frames` (all within the window ending at `fid`)
  * and `frames.size >= d`.
  */
final case class McosResult(fid: Int, objects: ObjSet, frames: Vector[Int]) {
  override def toString: String =
    s"McosResult($fid, {${objects.mkString(",")}}, [${frames.mkString(",")}])"
}

/** Incremental MCOS generator: one instance per video feed; frames must be
  * fed in strictly increasing, non-negative `fid` order (gaps allowed — a
  * missing frame is simply a frame that contributes no objects and is absent
  * from the window relation, matching the paper's frame-id semantics).
  *
  * Implementations are single-threaded mutable state machines, designed to be
  * held as Spark group state (hence [[Serializable]]). Each writes its states
  * in a flat form of primitives (DESIGN.md §4).
  */
trait McosGenerator extends Serializable {
  def spec: WindowSpec

  /** The last frame processed, -1 before the first; part of the state. */
  private var lastFid = -1

  /** Check the input contract, changing nothing.
    * @throws IllegalArgumentException unless `fid` is non-negative and newer than every frame so far
    */
  final def requireNext(fid: Int): Unit = {
    if (fid < 0)
      throw new IllegalArgumentException(s"frame $fid arrived with a negative fid: fids must be non-negative")
    if (fid <= lastFid)
      throw new IllegalArgumentException(
        s"frame $fid arrived after frame $lastFid: fids must be strictly increasing")
  }

  /** [[requireNext]], then take `fid` as the last frame processed. */
  protected final def advanceTo(fid: Int): Unit = {
    requireNext(fid)
    lastFid = fid
  }

  /** Advance the window to `fid`, fold in its object set, and return the
    * Result State Set (paper §4.3.7): every valid state whose frame set has at
    * least `d` frames, i.e. the MCOSs the Query Evaluation module consumes.
    *
    * @throws IllegalArgumentException if `fid` is negative or not newer than
    *         the previous frame
    */
  def processFrame(fid: Int, objects: ObjSet): Vector[McosResult]

  /** Number of states currently maintained (performance counter). */
  def stateCount: Int

  /** Total object-set intersections computed so far (performance counter —
    * the paper's methods differ exactly in how many of these they do).
    */
  def intersections: Long
}

/** Factory names used across benches/jobs ("NAIVE"/"MFS"/"SSG"). */
object McosGenerator {
  /** `prune`: optional §5.3 termination filter — a state whose object set
    * fails it is dropped at creation time (only sound for ≥-only query sets;
    * the caller guarantees that).
    */
  def apply(method: String, spec: WindowSpec,
            prune: Option[ObjSet => Boolean] = None): McosGenerator =
    method.toUpperCase(java.util.Locale.ROOT) match {
      case "NAIVE" => new NaiveGenerator(spec, prune)
      case "MFS"   => new MfsGenerator(spec, prune)
      case "SSG"   => new SsgGenerator(spec, prune)
      case other   => throw new IllegalArgumentException(s"unknown method $other")
    }
}
