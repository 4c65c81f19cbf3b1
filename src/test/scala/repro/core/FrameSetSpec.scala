package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.RandomizedSpec

/** Unit tests for the sorted frame-id buffer underlying every state. */
class FrameSetSpec extends AnyFunSuite with RandomizedSpec {

  test("append keeps frames sorted and deduplicated") {
    val fs = new FrameSet
    fs.append(1); fs.append(3); fs.append(3); fs.append(7)
    assert(fs.toVector === Vector(1, 3, 7))
    assert(fs.size === 3)
  }

  test("append ignores a frame not newer than the last") {
    val fs = new FrameSet
    fs.append(5); fs.append(5)
    assert(fs.toVector === Vector(5))
  }

  test("expire drops strictly-older frames only") {
    val fs = new FrameSet
    (1 to 10).foreach(fs.append)
    fs.expire(4)
    assert(fs.toVector === Vector(4, 5, 6, 7, 8, 9, 10))
  }

  test("expire on empty set is a no-op") {
    val fs = new FrameSet
    fs.expire(100)
    assert(fs.isEmpty)
  }

  test("expire can empty the set") {
    val fs = new FrameSet
    fs.append(1); fs.append(2)
    fs.expire(10)
    assert(fs.isEmpty && fs.size === 0)
  }

  test("mergeFrom computes a sorted union") {
    val a = new FrameSet; Seq(1, 4, 6).foreach(a.append)
    val b = new FrameSet; Seq(2, 4, 9).foreach(b.append)
    a.mergeFrom(b)
    assert(a.toVector === Vector(1, 2, 4, 6, 9))
    assert(b.toVector === Vector(2, 4, 9))
  }

  test("mergeFrom with empty other is a no-op") {
    val a = new FrameSet; Seq(1, 2).foreach(a.append)
    a.mergeFrom(new FrameSet)
    assert(a.toVector === Vector(1, 2))
  }

  test("mergeFrom into empty copies the other") {
    val a = new FrameSet
    val b = new FrameSet; Seq(3, 5).foreach(b.append)
    a.mergeFrom(b)
    assert(a.toVector === Vector(3, 5))
  }

  test("mergeFrom fast-path when other is entirely newer") {
    val a = new FrameSet; Seq(1, 2).foreach(a.append)
    val b = new FrameSet; Seq(5, 6).foreach(b.append)
    a.mergeFrom(b)
    assert(a.toVector === Vector(1, 2, 5, 6))
  }

  test("randomized: mergeFrom ≡ sorted distinct union") {
    forSeeds() { rnd =>
      val xs = Vector.fill(rnd.nextInt(30))(rnd.nextInt(100)).distinct.sorted
      val ys = Vector.fill(rnd.nextInt(30))(rnd.nextInt(100)).distinct.sorted
      val a = new FrameSet; xs.foreach(a.append)
      val b = new FrameSet; ys.foreach(b.append)
      a.mergeFrom(b)
      assert(a.toVector === (xs ++ ys).distinct.sorted)
    }
  }

  test("randomized: expire ≡ filter(_ >= start)") {
    forSeeds(0xE1) { rnd =>
      val xs = Vector.fill(rnd.nextInt(40))(rnd.nextInt(100)).distinct.sorted
      val start = rnd.nextInt(120)
      val fs = new FrameSet; xs.foreach(fs.append)
      fs.expire(start)
      assert(fs.toVector === xs.filter(_ >= start))
    }
  }

  test("randomized: interleaved append/expire/mergeFrom ≡ a Vector model through growth and compaction") {
    forSeeds(0xB0F) { rnd =>
      val fs = new FrameSet
      var model = Vector.empty[Int]
      var next = 0
      var appended = 0
      while (appended < 4 * FrameSet.InitialCapacity || rnd.nextInt(8) != 0) {
        rnd.nextInt(10) match {
          case 0 => // expire: keeps up to ~3x the initial capacity live
            val start = next - rnd.nextInt(6 * FrameSet.InitialCapacity)
            fs.expire(start)
            model = model.filter(_ >= start)
          case 1 => // merge a sorted set overlapping the newest frames
            val other = Vector.fill(rnd.nextInt(2 * FrameSet.InitialCapacity))(next - 20 + rnd.nextInt(30))
              .distinct.sorted
            val b = new FrameSet; other.foreach(b.append)
            fs.mergeFrom(b)
            model = (model ++ other).distinct.sorted
            next = math.max(next, model.lastOption.fold(next)(_ + 1))
            appended += other.size
          case 2 => // at or below the newest frame: a no-op unless the set is empty
            val fid = next - 1 - rnd.nextInt(3)
            fs.append(fid)
            if (model.isEmpty || model.last < fid) model :+= fid
          case _ =>
            next += 1 + rnd.nextInt(3)
            fs.append(next)
            model :+= next
            appended += 1
        }
        assert(fs.toVector === model)
        assert(fs.size === model.size)
        assert(fs.isEmpty === model.isEmpty)
        if (model.nonEmpty) assert(fs.head === model.head && fs.last === model.last)
      }
    }
  }

  private def serialize(fs: FrameSet): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new DataOutputStream(bos)
    fs.writeTo(out); out.close()
    bos.toByteArray
  }

  test("writeTo/readFrom round trip after expiry keeps exactly the live frames") {
    val fs = new FrameSet
    (1 to 1000).foreach(fs.append)
    fs.expire(997)
    val bytes = serialize(fs)
    val back = new FrameSet
    back.readFrom(new DataInputStream(new ByteArrayInputStream(bytes)))
    assert(back.toVector === Vector(997, 998, 999, 1000))
    val fresh = new FrameSet; (997 to 1000).foreach(fresh.append)
    assert(bytes.toSeq === serialize(fresh).toSeq, "expired frames must not be written")
    back.append(1001); back.expire(999)
    assert(back.toVector === Vector(999, 1000, 1001))
  }
}
