package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.video.{Profiles, SynthVideo}

/** The generators' work, not just their outputs: a change that keeps every
  * answer but visits, intersects or keeps different states is caught here.
  * The constants are the generators' counts over the first 360 frames of D2
  * and M2, and over the whole of M2, at the paper defaults w=300, d=240;
  * change them only with a change that means to change the algorithms' work.
  * Over the whole of D2 and M2, NAIVE, which keeps every state and filters at
  * output, must also emit exactly MFS's results in every frame.
  */
class GeneratorWorkSpec extends AnyFunSuite {

  private val spec = WindowSpec(300, 240)

  /** (feed, method) → (total intersections, end state count, total results). */
  private val expected = Map(
    ("D2", "NAIVE") -> ((682395L, 5996, 60L)),
    ("D2", "MFS")   -> ((671733L, 5679, 60L)),
    ("D2", "SSG")   -> ((627298L, 5679, 60L)),
    ("M2", "NAIVE") -> ((1372199L, 9694, 0L)),
    ("M2", "MFS")   -> ((1360244L, 9372, 0L)),
    ("M2", "SSG")   -> ((885969L, 9373, 0L)),
  )

  /** The same counts over the whole of M2, whose first 360 frames emit no
    * result: here SSG keeps a non-empty Result State Set.
    */
  private val expectedWholeM2 = Map(
    "NAIVE" -> ((7563307L, 20052, 311L)),
    "MFS"   -> ((4758159L, 5136, 311L)),
    "SSG"   -> ((3128978L, 5265, 311L)),
  )

  private def feed(name: String): Vector[ObjSet.ObjSet] =
    SynthVideo.generate(Profiles.byName(name)).frames.map(objs => ObjSet.from(objs.map(_._1)))

  /** A run's work counts and its per-frame results as (objects, frames) sets. */
  private type Run = ((Long, Int, Long), Vector[Set[(ObjSet.ObjSet, Vector[Int])]])

  private def run(method: String, frames: Vector[ObjSet.ObjSet]): Run = {
    val gen = McosGenerator(method, spec)
    var results = 0L
    val out = frames.indices.map { fid =>
      val rs = gen.processFrame(fid, frames(fid))
      results += rs.size
      rs.map(r => (r.objects, r.frames)).toSet
    }.toVector
    ((gen.intersections, gen.stateCount, results), out)
  }

  private val methods = Seq("NAIVE", "MFS", "SSG")

  for (name <- Seq("D2", "M2")) {
    lazy val frames = feed(name).take(360)
    for (method <- methods) {
      test(s"$method does the pinned work over the first 360 frames of $name") {
        assert(run(method, frames)._1 === expected((name, method)))
      }
    }
  }

  /** Whole-feed runs, each made once and shared by the tests that read it. */
  private val wholeRuns = scala.collection.mutable.Map.empty[(String, String), Run]
  private def whole(name: String, method: String): Run =
    wholeRuns.getOrElseUpdate((name, method), run(method, feed(name)))

  for (method <- methods) {
    test(s"$method does the pinned work over the whole of M2") {
      assert(whole("M2", method)._1 === expectedWholeM2(method))
    }
  }

  for (name <- Seq("D2", "M2")) {
    test(s"NAIVE emits MFS's results frame by frame over the whole of $name") {
      val naive = whole(name, "NAIVE")._2
      val mfs = whole(name, "MFS")._2
      assert(mfs.exists(_.nonEmpty))
      val differ = mfs.indices.filter(fid => naive(fid) != mfs(fid))
      assert(differ.isEmpty, s"(frames whose results differ, of ${mfs.size})")
    }
  }
}
