package repro.core

import java.io.{DataInput, DataOutput}

/** The frames of one state in the window, as a `w`-bit mask over the window
  * ring: frame `f` is bit `f mod w`, and the mask stands for the window of
  * `w` frames that ends at frame `end`. The window slides by clearing the
  * bits of the frames that leave it, and merging two sets of one window
  * (paper's `merge(F_s,F_ps)`) is a word-wise OR. The size is a count kept
  * as bits change.
  *
  * Written form ([[writeTo]]): `end`, then the mask words; an empty set,
  * which has no window of its own, writes -1 alone.
  */
final class FrameSet(w: Int) {
  private val words = new Array[Long]((w + 63) >>> 6)
  /** The newest frame of the window; -1 before the first. */
  private var end = -1
  private var count = 0

  def size: Int = count

  /** Slide the window to start at `winStart`, dropping every older frame. */
  def expire(winStart: Int): Unit = {
    val newEnd = winStart + w - 1
    if (count > 0 && newEnd > end) {
      // Frames end+1..newEnd take the bits of the frames that leave the window.
      val from = (end + 1) % w
      val until = from + math.min(newEnd - end, w)
      clear(from, math.min(until, w))
      clear(0, until - w)
    }
    end = math.max(end, newEnd)
  }

  /** Add `fid` as the newest frame, sliding the window to end at it. A frame
    * older than the window's end is ignored, unless the set is empty: an
    * empty set takes the window of the first frame or set it is given.
    */
  def append(fid: Int): Unit = {
    if (count == 0) end = fid else expire(fid - w + 1)
    if (fid == end && !has(fid)) {
      words(fid % w >>> 6) |= 1L << fid % w
      count += 1
    }
  }

  /** Union with `other`, whose window must be this set's or a newer one: this
    * set first slides to `other`'s window.
    */
  def mergeFrom(other: FrameSet): Unit = if (other.count > 0) {
    if (count == 0) end = other.end else expire(other.end - w + 1)
    require(end == other.end, s"frames of the window ending at ${other.end} merged into a newer one")
    var i = 0
    while (i < words.length) {
      count += java.lang.Long.bitCount(other.words(i) & ~words(i))
      words(i) |= other.words(i)
      i += 1
    }
  }

  /** The frames, oldest first. */
  def toVector: Vector[Int] = (math.max(0, end - w + 1) to end).filter(has).toVector

  private def has(f: Int): Boolean = (words(f % w >>> 6) & 1L << f % w) != 0

  /** Clear bits `[from, until)`, a word at a time, keeping the count. */
  private def clear(from: Int, until: Int): Unit = {
    var i = from
    while (i < until) {
      val next = math.min(until, (i | 63) + 1)
      val m = -1L >>> (64 - (next - i)) << i
      count -= java.lang.Long.bitCount(words(i >>> 6) & m)
      words(i >>> 6) &= ~m
      i = next
    }
  }

  /** Write the window's end and the mask words, or -1 for an empty set. */
  private[core] def writeTo(out: DataOutput): Unit =
    if (count == 0) out.writeInt(-1)
    else { out.writeInt(end); words.foreach(out.writeLong) }

  /** Replace the contents with frames written by [[writeTo]]. */
  private[core] def readFrom(in: DataInput): Unit = {
    end = in.readInt()
    count = 0
    words.indices.foreach { i =>
      words(i) = if (end < 0) 0L else in.readLong()
      count += java.lang.Long.bitCount(words(i))
    }
  }
}
