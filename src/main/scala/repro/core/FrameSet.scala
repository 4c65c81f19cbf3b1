package repro.core

import java.io.{DataInput, DataOutput}

/** Mutable sorted frame-id set for one state.
  *
  * Frames are appended in increasing order and expire from the front as the
  * window slides, so the live frames are the window `buf[from, until)` of a
  * primitive int buffer. Appending is amortized O(1): when the buffer is full
  * it is compacted in place if at most half of it is live, and doubled
  * otherwise. Merging (paper's `merge(F_s,F_ps)`) is a sorted-union.
  *
  * Written form ([[writeTo]]): the live frame count, then the live frames.
  */
final class FrameSet {
  private var buf: Array[Int] = FrameSet.NoFrames
  private var from = 0
  private var until = 0

  def size: Int = until - from
  def isEmpty: Boolean = until == from
  def nonEmpty: Boolean = until != from
  /** Newest frame; the set must be non-empty. */
  def last: Int = buf(until - 1)
  /** Oldest frame; the set must be non-empty. */
  def head: Int = buf(from)

  /** Append `fid`; no-op if already present as the newest element. */
  def append(fid: Int): Unit =
    if (isEmpty || buf(until - 1) < fid) {
      if (until == buf.length) makeRoom(1)
      buf(until) = fid
      until += 1
    }

  /** Drop all frames older than `winStart`. */
  def expire(winStart: Int): Unit = {
    while (from < until && buf(from) < winStart) from += 1
    if (from == until) { from = 0; until = 0 }
  }

  /** Sorted union with another frame set (both stay sorted/deduped). */
  def mergeFrom(other: FrameSet): Unit = {
    val n = other.size
    if (n == 0) return
    if (isEmpty || last < other.head) {
      if (buf.length - until < n) makeRoom(n)
      System.arraycopy(other.buf, other.from, buf, until, n)
      until += n
      return
    }
    val a = buf; val b = other.buf
    val merged = new Array[Int](FrameSet.capacityFor(size + n))
    var i = from; var j = other.from; var k = 0
    while (i < until && j < other.until) {
      val x = a(i); val y = b(j)
      if (x <= y) { merged(k) = x; i += 1; if (x == y) j += 1 }
      else        { merged(k) = y; j += 1 }
      k += 1
    }
    while (i < until) { merged(k) = a(i); i += 1; k += 1 }
    while (j < other.until) { merged(k) = b(j); j += 1; k += 1 }
    buf = merged; from = 0; until = k
  }

  def toVector: Vector[Int] = {
    val b = Vector.newBuilder[Int]
    b.sizeHint(size)
    var i = from
    while (i < until) { b += buf(i); i += 1 }
    b.result()
  }

  override def toString: String = toVector.mkString("[", ",", "]")

  /** Make room for `n` more frames at the end: compact in place when at most
    * half the buffer is live, otherwise move to a buffer at least twice as big.
    */
  private def makeRoom(n: Int): Unit = {
    val live = size
    if (2 * live <= buf.length && live + n <= buf.length) {
      System.arraycopy(buf, from, buf, 0, live)
    } else {
      val grown = new Array[Int](FrameSet.capacityFor(math.max(2 * buf.length, live + n)))
      System.arraycopy(buf, from, grown, 0, live)
      buf = grown
    }
    from = 0; until = live
  }

  /** Write the live frames: their count, then each frame id. */
  private[core] def writeTo(out: DataOutput): Unit = {
    out.writeInt(size)
    var i = from
    while (i < until) { out.writeInt(buf(i)); i += 1 }
  }

  /** Replace the contents with frames written by [[writeTo]]. */
  private[core] def readFrom(in: DataInput): Unit = {
    val n = in.readInt()
    buf = if (n == 0) FrameSet.NoFrames else new Array[Int](FrameSet.capacityFor(n))
    var i = 0
    while (i < n) { buf(i) = in.readInt(); i += 1 }
    from = 0; until = n
  }
}

object FrameSet {
  /** Capacity of a frame set's first buffer; an empty set holds none. */
  private[core] val InitialCapacity = 8

  private val NoFrames = new Array[Int](0)

  private def capacityFor(n: Int): Int = math.max(InitialCapacity, n)
}
