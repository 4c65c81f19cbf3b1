package repro.query

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.RandomizedSpec
import repro.core.{McosGenerator, WindowSpec}
import repro.video.{Profiles, SynthVideo}

/** End-to-end §5 pipeline tests: variants must agree with each other and the
  * §5.3 termination pruning must not change any query answer (Proposition 1).
  */
class QueryPipelineSpec extends AnyFunSuite with RandomizedSpec {

  override def cases: Int = 60

  /** A small labelled object stream: objects with classes, occlusion blinks. */
  private def stream(rnd: Random, nObjects: Int, length: Int): Vector[Vector[(Int, String)]] = {
    val cls = Array.tabulate(nObjects)(i => CnfQuery.classes(rnd.nextInt(CnfQuery.classes.size)))
    val visible = Array.fill(nObjects)(rnd.nextBoolean())
    Vector.tabulate(length) { _ =>
      (0 until nObjects).foreach { o =>
        if (rnd.nextInt(4) == 0) visible(o) = !visible(o)
      }
      (0 until nObjects).filter(visible).map(o => (o, cls(o))).toVector
    }
  }

  private def run(p: QueryPipeline, frames: Vector[Vector[(Int, String)]]): Vector[Set[QueryMatch]] =
    frames.zipWithIndex.map { case (objs, fid) => p.processFrame(fid, objs).toSet }

  test("NAIVE_E ≡ MFS_E ≡ SSG_E on random workloads") {
    forSeeds() { rnd =>
      val w = 2 + rnd.nextInt(7); val spec = WindowSpec(w, 1 + rnd.nextInt(math.min(3, w)))
      val queries = CnfQuery.randomQueries(1 + rnd.nextInt(10), rnd.nextLong(), maxN = 4)
      val frames = stream(rnd, 2 + rnd.nextInt(7), 5 + rnd.nextInt(25))
      val a = run(new QueryPipeline(queries, spec, "NAIVE"), frames)
      val b = run(new QueryPipeline(queries, spec, "MFS"), frames)
      val c = run(new QueryPipeline(queries, spec, "SSG"), frames)
      assert(a === b)
      assert(b === c)
    }
  }

  test("§5.3 pruning (MFS_O, SSG_O) never changes ≥-only query answers") {
    forSeeds(0x5353) { rnd =>
      val w = 2 + rnd.nextInt(7); val spec = WindowSpec(w, 1 + rnd.nextInt(math.min(3, w)))
      val queries = CnfQuery.geQueries(1 + rnd.nextInt(10), 1 + rnd.nextInt(3), rnd.nextLong())
      val frames = stream(rnd, 2 + rnd.nextInt(7), 5 + rnd.nextInt(25))
      val base = run(new QueryPipeline(queries, spec, "MFS"), frames)
      // NAIVE with the hook is no paper variant, but its result rule must keep
      // Proposition 1 too.
      val pruned = Seq("NAIVE", "MFS", "SSG").map(new QueryPipeline(queries, spec, _, pruneByEval = true))
      pruned.foreach { p =>
        assert(p.pruningActive)
        assert(run(p, frames) === base)
      }
    }
  }

  test("§5.3 pruning keeps MFS_E's answers frame by frame over the whole D2 feed with id reuse") {
    // The ≥-only set of the benchmark's Proposition 1 check (n_min = 2, seed
    // 101) at the paper's w and d. Under p_o > 0 a reused id returns as a new
    // track, so an object set's class counts change over the feed.
    val spec = WindowSpec(300, 240)
    val queries = CnfQuery.geQueries(100, nMin = 2, seed = 101)
    val mismatched = Seq(1, 2).flatMap { po =>
      val frames = SynthVideo.generate(Profiles.D2, idReuse = po).frames
        .zipWithIndex.filter(_._1.nonEmpty)
      def answers(method: String, prune: Boolean): Vector[Set[QueryMatch]] = {
        val p = new QueryPipeline(queries, spec, method, prune)
        frames.map { case (objs, fid) => p.processFrame(fid, objs).toSet }
      }
      val base = answers("MFS", prune = false)
      assert(base.exists(_.nonEmpty))
      Seq("MFS", "SSG").map { method =>
        val pruned = answers(method, prune = true)
        s"${method}_O at p_o = $po" -> frames.indices.count(i => pruned(i) != base(i))
      }
    }
    assert(mismatched.filter(_._2 > 0) === Nil, "(variant, frames whose answers differ from MFS_E)")
  }

  test("pruning stays inert when queries are not ≥-only") {
    val spec = WindowSpec(4, 2)
    val mixed = Vector(CnfQuery(0, Vector(Vector(Condition("car", Op.Le, 3)))))
    val p = new QueryPipeline(mixed, spec, "SSG", pruneByEval = true)
    assert(!p.pruningActive)
  }

  test("pruning shrinks the maintained state space on selective queries") {
    val rnd = new Random(42)
    val spec = WindowSpec(8, 4)
    // Impossible thresholds: every state is terminated at creation.
    val queries = CnfQuery.geQueries(20, nMin = 50, seed = 1)
    val frames = stream(rnd, 8, 40)
    val plain = new QueryPipeline(queries, spec, "MFS")
    val pruned = new QueryPipeline(queries, spec, "MFS", pruneByEval = true)
    frames.zipWithIndex.foreach { case (objs, fid) =>
      assert(plain.processFrame(fid, objs).isEmpty)
      assert(pruned.processFrame(fid, objs).isEmpty)
    }
    assert(pruned.stateCount === 0, "all states must be terminated at creation")
    assert(plain.stateCount > 0)
  }

  test("classes not mentioned by any query are dropped on entry") {
    val spec = WindowSpec(3, 1)
    val queries = Vector(CnfQuery(0, Vector(Vector(Condition("car", Op.Ge, 1)))))
    val p = new QueryPipeline(queries, spec, "MFS")
    // Two cars and a person: the person must not appear in any MCOS.
    val out = p.processFrame(0, Vector((1, "car"), (2, "car"), (3, "person")))
    assert(out.nonEmpty)
    out.foreach(m => assert(!m.objects.contains(3)))
  }

  test("aggregates count objects per class") {
    val spec = WindowSpec(3, 1)
    val queries = Vector(CnfQuery(0, Vector(Vector(
      Condition("car", Op.Ge, 2), Condition("person", Op.Ge, 1)))))
    val p = new QueryPipeline(queries, spec, "SSG")
    p.processFrame(0, Vector((1, "car"), (2, "car"), (3, "person")))
    assert(p.aggregates(repro.core.ObjSet.of(1, 2, 3)) === Map("car" -> 2, "person" -> 1))
  }

  test("matches report the MCOS frame set, not just the current frame") {
    val spec = WindowSpec(4, 2)
    val queries = Vector(CnfQuery(7, Vector(Vector(Condition("car", Op.Ge, 2)))))
    val p = new QueryPipeline(queries, spec, "SSG")
    val objs = Vector((1, "car"), (2, "car"))
    assert(p.processFrame(0, objs).isEmpty)          // only 1 frame < d
    val m = p.processFrame(1, objs)
    assert(m.map(x => (x.qid, x.objects, x.frames)) ===
      Vector((7, repro.core.ObjSet.of(1, 2), Vector(0, 1))))
  }

  test("a rejected frame leaves the class map unchanged") {
    val queries = Vector("car", "person").zipWithIndex.map { case (cls, qid) =>
      CnfQuery(qid, Vector(Vector(Condition(cls, Op.Ge, 1))))
    }
    Seq("NAIVE", "MFS", "SSG").foreach { method =>
      val p = new QueryPipeline(queries, WindowSpec(5, 2), method)
      p.processFrame(0, Vector((1, "car")))
      p.processFrame(1, Vector((1, "car")))
      // A repeated fid, then a negative id, each claiming object 1 is a person.
      intercept[IllegalArgumentException](p.processFrame(1, Vector((1, "person"))))
      intercept[IllegalArgumentException](p.processFrame(2, Vector((1, "person"), (-1, "person"))))
      assert(p.processFrame(2, Vector.empty).map(_.qid) === Vector(0), method)
    }
  }

  test("QueryPipeline holds its generator in exactly one generator-typed field") {
    // The benchmark swaps a timing wrapper into that field by reflection.
    val fields = classOf[QueryPipeline].getDeclaredFields
      .filter(f => classOf[McosGenerator].isAssignableFrom(f.getType))
    assert(fields.length === 1, fields.map(_.getName).mkString(", "))
  }
}
