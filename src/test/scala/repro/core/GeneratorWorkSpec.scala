package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.video.{Profiles, SynthVideo}

/** The generators' work, not just their outputs: a change that keeps every
  * answer but visits, intersects or keeps different states is caught here.
  * The constants are the generators' counts over the first 360 frames of D2
  * and M2, and over the whole of M2, at the paper defaults w=300, d=240;
  * change them only with a change that means to change the algorithms' work.
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

  private def work(method: String, frames: Vector[ObjSet.ObjSet]): (Long, Int, Long) = {
    val gen = McosGenerator(method, spec)
    var results = 0L
    frames.indices.foreach(fid => results += gen.processFrame(fid, frames(fid)).size)
    (gen.intersections, gen.stateCount, results)
  }

  private val methods = Seq("NAIVE", "MFS", "SSG")

  for (name <- Seq("D2", "M2")) {
    lazy val frames = feed(name).take(360)
    for (method <- methods) {
      test(s"$method does the pinned work over the first 360 frames of $name") {
        assert(work(method, frames) === expected((name, method)))
      }
    }
  }

  private lazy val wholeM2 = feed("M2")
  for (method <- methods) {
    test(s"$method does the pinned work over the whole of M2") {
      assert(work(method, wholeM2) === expectedWholeM2(method))
    }
  }
}
