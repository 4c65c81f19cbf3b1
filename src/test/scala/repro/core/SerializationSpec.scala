package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.video.{Profiles, SynthVideo}

/** The generators are Spark group state: they must survive Java
  * serialization round-trips mid-stream with all behaviour intact.
  */
class SerializationSpec extends AnyFunSuite {

  private def roundTrip[T <: AnyRef](t: T): T = {
    val bos = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bos)
    out.writeObject(t); out.close()
    new ObjectInputStream(new ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[T]
  }

  /** [[roundTrip]] on a fresh thread with the JVM's default stack size, as a
    * Spark task thread has; anything it throws (a `StackOverflowError`
    * included) fails the test.
    */
  private def roundTripOnFreshThread[T <: AnyRef](t: T): T = {
    var result: Either[Throwable, T] = Left(new IllegalStateException("round trip did not run"))
    val thread = new Thread(() => result = try Right(roundTrip(t)) catch { case e: Throwable => Left(e) })
    thread.start()
    thread.join()
    result.fold(e => fail(s"round trip failed: $e", e), identity)
  }

  private def drive(gen: McosGenerator, fids: Seq[Int], rnd: scala.util.Random): Vector[Vector[McosResult]] =
    fids.toVector.map { fid =>
      gen.processFrame(fid, ObjSet.from((0 until 8).filter(_ => rnd.nextBoolean())))
    }

  /** (spec, fids before the round trip, fids after it). At w=64, the frames
    * after it run past `2w` and jump a gap of more than `w`.
    */
  private val midStream = Seq(
    (WindowSpec(6, 3), 0 until 20, 20 until 40),
    (WindowSpec(64, 20), 0 until 100, (100 until 140) ++ (210 until 300)))

  Seq("NAIVE", "MFS", "SSG").foreach { method =>
    test(s"$method generator round-trips through Java serialization mid-stream") {
      for ((spec, before, after) <- midStream) {
        val a = McosGenerator(method, spec)
        val b = McosGenerator(method, spec)
        drive(a, before, new scala.util.Random(1))
        drive(b, before, new scala.util.Random(1))
        val a2 = roundTrip(a)
        val cont1 = drive(a2, after, new scala.util.Random(2))
        val cont2 = drive(b, after, new scala.util.Random(2))
        assert(cont1.exists(_.nonEmpty), s"$method emits nothing after the round trip at w=${spec.w}")
        assert(cont1.map(_.toSet) === cont2.map(_.toSet), s"$method diverged after round-trip at w=${spec.w}")
      }
    }
  }

  // Paper scale: w=300, d=240 over Table 6 feeds. Frames 149 and 299 are
  // boundaries where a default-serialized SSG graph overflowed the stack.
  private val paperSpec = WindowSpec(300, 240)
  private val restoreAfter = Set(149, 299, 349)
  private lazy val feeds: Map[String, Vector[ObjSet.ObjSet]] =
    Seq("D2", "M2").map { name =>
      name -> SynthVideo.generate(Profiles.byName(name)).frames.take(400)
        .map(objs => ObjSet.from(objs.map(_._1)))
    }.toMap

  for (name <- Seq("D2", "M2"); method <- Seq("NAIVE", "MFS", "SSG")) {
    test(s"$method restored after frames ${restoreAfter.toSeq.sorted.mkString(", ")} of $name " +
         "continues exactly like an uninterrupted run") {
      val frames = feeds(name)
      val reference = McosGenerator(method, paperSpec)
      var gen = McosGenerator(method, paperSpec)
      var resultsAfterLastRestore = 0
      frames.indices.foreach { fid =>
        val want = reference.processFrame(fid, frames(fid))
        val got = gen.processFrame(fid, frames(fid))
        assert(got === want, s"$method outputs diverged at frame $fid")
        assert(gen.intersections === reference.intersections, s"$method intersections at frame $fid")
        assert(gen.stateCount === reference.stateCount, s"$method states at frame $fid")
        if (fid > restoreAfter.max) resultsAfterLastRestore += want.size
        if (restoreAfter(fid)) {
          gen = roundTripOnFreshThread(gen)
          // The graph carries the roots: the states without parents.
          (gen, reference) match {
            case (g: SsgGenerator, r: SsgGenerator) =>
              assert(g.edges === r.edges, s"SSG graph restored after frame $fid")
            case _ =>
          }
        }
      }
      // D2 emits results after the last restore, so a restored generator's
      // Result State Set is exercised, not only its empty one.
      if (name == "D2") assert(resultsAfterLastRestore > 0)
    }
  }
}
