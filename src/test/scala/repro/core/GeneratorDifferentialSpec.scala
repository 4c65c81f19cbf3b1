package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.RandomizedSpec
import repro.core.ObjSet.ObjSet

/** Differential correctness: on randomized object streams, every incremental
  * generator must emit exactly the per-frame result sets of the exhaustive
  * [[BruteForce]] reference (the formal-concept enumeration), across window
  * sizes, durations, occlusion churn, and empty frames.
  */
class GeneratorDifferentialSpec extends AnyFunSuite with RandomizedSpec {

  private case class Scenario(stream: Vector[Frame], spec: WindowSpec)

  /** Streams with persistent objects and random occlusion blinks — the
    * structure the paper's windows actually see (objects toggle visibility,
    * so frames can also be empty).
    */
  private def scenario(rnd: Random): Scenario = {
    val nObjects = 2 + rnd.nextInt(7)
    val length   = 5 + rnd.nextInt(36)
    val pToggle  = 2 + rnd.nextInt(7)
    val w        = 2 + rnd.nextInt(9)
    val d        = 1 + rnd.nextInt(w)
    val visible  = Array.fill(nObjects)(rnd.nextBoolean())
    val frames = Vector.tabulate(length) { fid =>
      (0 until nObjects).foreach { o =>
        if (rnd.nextInt(pToggle) == 0) visible(o) = !visible(o)
      }
      Frame(fid, ObjSet.from((0 until nObjects).filter(visible)))
    }
    Scenario(frames, WindowSpec(w, d))
  }

  private def norm(rs: Iterable[McosResult]): Set[(ObjSet, Vector[Int])] =
    rs.map(r => (r.objects, r.frames)).toSet

  private def check(mk: WindowSpec => McosGenerator): Unit =
    forSeeds() { rnd =>
      val sc = scenario(rnd)
      val gen = mk(sc.spec)
      val exp = BruteForce.run(sc.stream, sc.spec)
      sc.stream.zipWithIndex.foreach { case (f, i) =>
        val got = norm(gen.processFrame(f.fid, f.objects))
        assert(got === norm(exp(i)),
          s"frame ${f.fid} (w=${sc.spec.w}, d=${sc.spec.d})")
      }
    }

  test("NAIVE ≡ BruteForce on random occlusion streams")(check(new NaiveGenerator(_)))
  test("MFS ≡ BruteForce on random occlusion streams")(check(new MfsGenerator(_)))
  test("SSG ≡ BruteForce on random occlusion streams")(check(new SsgGenerator(_)))

  test("MFS and SSG agree on live valid states and marks, frame by frame") {
    forSeeds(0xBEEF) { rnd =>
      val sc = scenario(rnd)
      val mfs = new MfsGenerator(sc.spec)
      val ssg = new SsgGenerator(sc.spec)
      sc.stream.foreach { f =>
        mfs.processFrame(f.fid, f.objects)
        ssg.processFrame(f.fid, f.objects)
        // SSG prunes lazily (unvisited invalid states linger until touched or
        // swept): MFS's valid states must all be present in SSG with the same
        // marks, and anything extra in SSG must be currently invalid.
        val ms = mfs.snapshot
        val ss = ssg.snapshot
        val start = sc.spec.winStart(f.fid)
        ms.foreach { case (ids, (_, mark)) =>
          assert(ss.contains(ids), s"SSG lost valid state $ids at frame ${f.fid}")
          assert(ss(ids)._2 === mark, s"mark mismatch for $ids at frame ${f.fid}")
        }
        ss.foreach { case (ids, (_, mark)) =>
          if (!ms.contains(ids))
            assert(mark < start, s"SSG kept $ids as valid but MFS pruned it")
        }
        // Every `w` frames the result pass covers every state: no invalid
        // state outlives it, so SSG's table is MFS's.
        if (f.fid % sc.spec.w == 0)
          assert(ss === ms, s"SSG's table differs from MFS's after the sweep at frame ${f.fid}")
      }
    }
  }

  test("sparse fids (gaps in the stream) are handled consistently") {
    forSeeds(0xFACE) { rnd =>
      val sc = scenario(rnd)
      // Stretch fids ×2: every other frame id is absent entirely.
      val sparse = sc.stream.map(f => f.copy(fid = f.fid * 2))
      val gen = new MfsGenerator(sc.spec)
      val ssg = new SsgGenerator(sc.spec)
      val ref = new NaiveGenerator(sc.spec)
      sparse.foreach { f =>
        val exp = norm(ref.processFrame(f.fid, f.objects))
        assert(norm(gen.processFrame(f.fid, f.objects)) === exp, s"MFS frame ${f.fid}")
        assert(norm(ssg.processFrame(f.fid, f.objects)) === exp, s"SSG frame ${f.fid}")
      }
    }
  }

  test("every state's frames are its object set's extent in the window") {
    val methods = Seq[WindowSpec => McosCore[_]](new NaiveGenerator(_), new MfsGenerator(_), new SsgGenerator(_))
    forSeeds(0xE7E) { rnd =>
      val sc = scenario(rnd)
      for (stretch <- Seq(1, 2); mk <- methods) {
        val stream = sc.stream.map(f => f.copy(fid = f.fid * stretch))
        val gen = mk(sc.spec)
        stream.zipWithIndex.foreach { case (f, i) =>
          gen.processFrame(f.fid, f.objects)
          val start = sc.spec.winStart(f.fid)
          val window = stream.take(i + 1).filter(_.fid >= start)
          // NAIVE's invalid states included. SSG expires a state it does not
          // visit later, so only the frames in the window are compared.
          gen.snapshot.foreach { case (ids, (frames, _)) =>
            assert(frames.filter(_ >= start) === window.filter(w => ids.subsetOf(w.objects)).map(_.fid),
              s"${gen.getClass.getSimpleName} state $ids at frame ${f.fid} (fids ×$stretch)")
          }
        }
      }
    }
  }

  test("duration d=w selects only sets present in every window frame") {
    val spec = WindowSpec(3, 3)
    val gen = new SsgGenerator(spec)
    val frames = Vector(
      Frame(0, ObjSet.of(1, 2)),
      Frame(1, ObjSet.of(1, 2, 3)),
      Frame(2, ObjSet.of(1, 2, 4)),
      Frame(3, ObjSet.of(1, 5)),
    )
    val out = frames.map(f => norm(gen.processFrame(f.fid, f.objects)))
    assert(out(0) === Set.empty)
    assert(out(1) === Set.empty)
    assert(out(2) === Set((ObjSet.of(1, 2), Vector(0, 1, 2))))
    assert(out(3) === Set((ObjSet.of(1), Vector(1, 2, 3))))
  }

  test("empty frames slide the window without corrupting state") {
    val spec = WindowSpec(4, 2)
    val mfs = new MfsGenerator(spec)
    val naive = new NaiveGenerator(spec)
    val ssg = new SsgGenerator(spec)
    val frames = Vector(
      Frame(0, ObjSet.of(1, 2)),
      Frame(1, ObjSet.empty),
      Frame(2, ObjSet.of(1, 2)),
      Frame(3, ObjSet.empty),
      Frame(4, ObjSet.of(1)),
      Frame(5, ObjSet.of(1, 2)),
    )
    val exp = BruteForce.run(frames, spec)
    frames.zipWithIndex.foreach { case (f, i) =>
      assert(norm(naive.processFrame(f.fid, f.objects)) === norm(exp(i)), s"NAIVE@${f.fid}")
      assert(norm(mfs.processFrame(f.fid, f.objects)) === norm(exp(i)), s"MFS@${f.fid}")
      assert(norm(ssg.processFrame(f.fid, f.objects)) === norm(exp(i)), s"SSG@${f.fid}")
    }
  }
}
