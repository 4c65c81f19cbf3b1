package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.RandomizedSpec

/** Unit tests for the window mask holding every state's frames. */
class FrameSetSpec extends AnyFunSuite with RandomizedSpec {

  private def frames(w: Int, fids: Int*): FrameSet = {
    val fs = new FrameSet(w)
    fids.foreach(fs.append)
    fs
  }

  test("append keeps frames sorted and deduplicated") {
    val fs = frames(10, 1, 3, 3, 7)
    assert(fs.toVector === Vector(1, 3, 7))
    assert(fs.size === 3)
  }

  test("append ignores a frame not newer than the last") {
    val fs = frames(10, 5, 5, 3)
    assert(fs.toVector === Vector(5))
  }

  test("expire drops strictly-older frames only") {
    val fs = frames(10, 1 to 10: _*)
    fs.expire(4)
    assert(fs.toVector === Vector(4, 5, 6, 7, 8, 9, 10))
  }

  test("expire on empty set is a no-op") {
    val fs = new FrameSet(10)
    fs.expire(100)
    assert(fs.size === 0 && fs.toVector.isEmpty)
  }

  test("expire can empty the set") {
    val fs = frames(10, 1, 2)
    fs.expire(10)
    assert(fs.size === 0 && fs.toVector.isEmpty)
  }

  test("mergeFrom computes a sorted union") {
    val a = frames(10, 1, 4, 6)
    val b = frames(10, 2, 4, 9)
    a.mergeFrom(b)
    assert(a.toVector === Vector(1, 2, 4, 6, 9) && a.size === 5)
    assert(b.toVector === Vector(2, 4, 9))
  }

  test("mergeFrom with empty other is a no-op") {
    val a = frames(10, 1, 2)
    a.mergeFrom(new FrameSet(10))
    assert(a.toVector === Vector(1, 2))
  }

  test("mergeFrom into empty copies the other") {
    val a = new FrameSet(10)
    a.mergeFrom(frames(10, 3, 5))
    assert(a.toVector === Vector(3, 5))
  }

  test("mergeFrom of a newer window slides this set to it") {
    val a = frames(4, 1, 2)
    a.mergeFrom(frames(4, 5, 6))
    assert(a.toVector === Vector(5, 6))
    // An older window's frames would alias the newer window's bits.
    intercept[IllegalArgumentException](a.mergeFrom(frames(4, 3)))
  }

  test("randomized: mergeFrom ≡ sorted distinct union") {
    forSeeds() { rnd =>
      val w = 1 + rnd.nextInt(130)
      val end = rnd.nextInt(3 * w)
      def inWindow() = Vector.fill(rnd.nextInt(30))(end - rnd.nextInt(w)).filter(_ >= 0).distinct.sorted
      val xs = inWindow(); val ys = inWindow()
      val a = frames(w, xs: _*); a.expire(end - w + 1)
      val b = frames(w, ys: _*); b.expire(end - w + 1)
      a.mergeFrom(b)
      val union = (xs ++ ys).distinct.sorted
      assert(a.toVector === union && a.size === union.size, s"w=$w")
    }
  }

  test("randomized: expire ≡ filter(_ >= start)") {
    forSeeds(0xE1) { rnd =>
      val w = 1 + rnd.nextInt(130)
      val base = rnd.nextInt(2 * w)
      val xs = Vector.fill(rnd.nextInt(40))(base + rnd.nextInt(w)).distinct.sorted
      val start = base - 5 + rnd.nextInt(w + 10)
      val fs = frames(w, xs: _*)
      fs.expire(start)
      assert(fs.toVector === xs.filter(_ >= start) && fs.size === xs.count(_ >= start), s"w=$w")
    }
  }

  test("randomized: interleaved ops ≡ a Vector model over ring wraps") {
    for (w <- Seq(1, 63, 64, 65, 300)) forSeeds(0xB0F + w) { rnd =>
      val fs = new FrameSet(w)
      var end = -1 // the model: the window's end and its frames, oldest first
      var model = Vector.empty[Int]
      def slide(to: Int): Unit = if (to > end) { end = to; model = model.filter(_ > to - w) }
      while (end < 4 * w) {
        rnd.nextInt(10) match {
          case 0 => // slide the window on by up to half its size
            val start = end - w + 1 + rnd.nextInt(w / 2 + 1)
            fs.expire(start)
            slide(start + w - 1)
          case 1 => // merge a set of this window or a slightly newer one
            val otherEnd = end + rnd.nextInt(3)
            val other = Vector.fill(rnd.nextInt(w + 1))(otherEnd - rnd.nextInt(w)).filter(_ >= 0).distinct.sorted
            val b = frames(w, other: _*); b.expire(otherEnd - w + 1)
            fs.mergeFrom(b)
            if (other.nonEmpty) { slide(otherEnd); model = (model ++ other).distinct.sorted }
          case 2 if end >= 0 => // at or below the window's end: ignored unless
            // it is the end, or the set is empty and takes the frame's window
            val fid = math.max(0, end - rnd.nextInt(3))
            fs.append(fid)
            if (model.isEmpty) { end = fid; model = Vector(fid) }
            else if (fid == end && !model.contains(fid)) model :+= fid
          case 3 => // a gap of a whole window or more clears the mask
            val fid = end + w + rnd.nextInt(3)
            fs.append(fid)
            slide(fid); model :+= fid
          case _ =>
            val fid = end + 1 + rnd.nextInt(3)
            fs.append(fid)
            slide(fid); model :+= fid
        }
        assert(fs.toVector === model, s"w=$w end=$end")
        assert(fs.size === model.size, s"w=$w end=$end")
      }
    }
  }

  private def serialize(fs: FrameSet): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new DataOutputStream(bos)
    fs.writeTo(out); out.close()
    bos.toByteArray
  }

  private def deserialize(w: Int, bytes: Array[Byte]): FrameSet = {
    val fs = new FrameSet(w)
    fs.readFrom(new DataInputStream(new ByteArrayInputStream(bytes)))
    fs
  }

  test("writeTo/readFrom round trip after expiry keeps exactly the live frames") {
    val fs = frames(5, 1 to 1000: _*)
    fs.expire(997)
    val bytes = serialize(fs)
    val back = deserialize(5, bytes)
    assert(back.toVector === Vector(997, 998, 999, 1000) && back.size === 4)
    val fresh = frames(5, 997 to 1000: _*); fresh.expire(997)
    assert(bytes.toSeq === serialize(fresh).toSeq, "expired frames must not be written")
    back.append(1001); back.expire(999)
    assert(back.toVector === Vector(999, 1000, 1001))
  }

  test("an empty set writes one int, also once emptied by expiry") {
    val emptied = frames(300, 1, 2); emptied.expire(400)
    for (fs <- Seq(new FrameSet(300), emptied)) {
      val bytes = serialize(fs)
      assert(bytes.length === 4)
      val back = deserialize(300, bytes)
      assert(back.size === 0 && back.toVector.isEmpty)
      // An empty set has no window: each takes that of the next frame.
      Seq(fs, back).foreach { s => s.append(7); assert(s.toVector === Vector(7)) }
    }
  }
}
