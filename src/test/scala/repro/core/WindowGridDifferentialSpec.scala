package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.ObjSet.ObjSet

/** Exhaustive (w, d) grid: for every window size 2..8 and every legal
  * duration, each generator is differentially tested against BruteForce on
  * randomized occlusion streams. At w = 63, 64 and 65, either side of a frame
  * mask's word boundary, a few durations each run on streams of more than
  * `2w` frames with one fid gap of at least `w`, which wrap the mask's ring
  * and clear it whole. One registered test per (method, w, d) cell keeps
  * failures precisely attributable.
  */
class WindowGridDifferentialSpec extends AnyFunSuite {

  private val seedsPerCell = 12

  private def stream(rnd: Random, minLength: Int): Vector[Frame] = {
    val nObjects = 2 + rnd.nextInt(6)
    val length = minLength + rnd.nextInt(20)
    val visible = Array.fill(nObjects)(rnd.nextBoolean())
    Vector.tabulate(length) { fid =>
      (0 until nObjects).foreach { o =>
        if (rnd.nextInt(4) == 0) visible(o) = !visible(o)
      }
      Frame(fid, ObjSet.from((0 until nObjects).filter(visible)))
    }
  }

  /** More than `2w` frames whose fids jump by `w` to `w + 3` at one point. */
  private def gapped(rnd: Random, w: Int): Vector[Frame] = {
    val frames = stream(rnd, 2 * w + 1)
    val cut = 1 + rnd.nextInt(frames.size - 1)
    val shift = w - 1 + rnd.nextInt(4)
    frames.map(f => if (f.fid < cut) f else f.copy(fid = f.fid + shift))
  }

  private def norm(rs: Iterable[McosResult]): Set[(ObjSet, Vector[Int])] =
    rs.map(r => (r.objects, r.frames)).toSet

  private val cells =
    (2 to 8).flatMap(w => (1 to w).map(w -> _)) ++ Seq(63, 64, 65).flatMap(w => Seq(1, w / 2, w).map(w -> _))

  for {
    method <- Seq("NAIVE", "MFS", "SSG")
    (w, d) <- cells
  } test(s"$method ≡ BruteForce at w=$w d=$d") {
    val spec = WindowSpec(w, d)
    val master = new Random(w * 131 + d * 17)
    (0 until seedsPerCell).foreach { i =>
      val rnd = new Random(master.nextLong())
      val frames = if (w <= 8) stream(rnd, 8) else gapped(rnd, w)
      val gen = McosGenerator(method, spec)
      val exp = BruteForce.run(frames, spec)
      frames.zipWithIndex.foreach { case (f, j) =>
        val got = norm(gen.processFrame(f.fid, f.objects))
        assert(got === norm(exp(j)), s"case $i frame ${f.fid}")
      }
    }
  }
}
