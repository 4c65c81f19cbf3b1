package repro.core

import java.util.Locale
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ObjSet.ObjSet

/** Model-level unit tests: window arithmetic, factory dispatch, ObjSet ops. */
class McosModelSpec extends AnyFunSuite {

  test("WindowSpec rejects non-positive windows") {
    assertThrows[IllegalArgumentException](WindowSpec(0, 1))
    assertThrows[IllegalArgumentException](WindowSpec(-3, 1))
  }

  test("WindowSpec rejects durations outside [1, w]") {
    assertThrows[IllegalArgumentException](WindowSpec(5, 0))
    assertThrows[IllegalArgumentException](WindowSpec(5, 6))
    WindowSpec(5, 5); WindowSpec(5, 1) // boundaries are legal
  }

  test("winStart spans exactly w frames") {
    val spec = WindowSpec(10, 3)
    assert(spec.winStart(9) === 0)
    assert(spec.winStart(100) === 91)
    // frames winStart..fid inclusive = w frames
    assert(100 - spec.winStart(100) + 1 === 10)
  }

  test("factory dispatches by method name, case-insensitively") {
    val spec = WindowSpec(4, 2)
    def dispatches(): Unit = {
      assert(McosGenerator("naive", spec).isInstanceOf[NaiveGenerator])
      assert(McosGenerator("Mfs", spec).isInstanceOf[MfsGenerator])
      assert(McosGenerator("SSG", spec).isInstanceOf[SsgGenerator])
    }
    dispatches()
    // Under a Turkish default locale "naive".toUpperCase is "NAİVE".
    val default = Locale.getDefault
    Locale.setDefault(Locale.forLanguageTag("tr"))
    try dispatches() finally Locale.setDefault(default)
  }

  test("factory rejects unknown methods") {
    assertThrows[IllegalArgumentException](McosGenerator("BOGUS", WindowSpec(2, 1)))
  }

  test("ObjSet helpers build the expected bitsets") {
    assert(ObjSet.of(1, 5, 3) === scala.collection.immutable.BitSet(1, 3, 5))
    assert(ObjSet.from(Seq(2, 2, 4)) === scala.collection.immutable.BitSet(2, 4))
    assert(ObjSet.empty.isEmpty)
  }

  test("ObjSet intersection is the hot-path operation used everywhere") {
    val a: ObjSet = ObjSet.of(1, 2, 3, 64, 130)
    val b: ObjSet = ObjSet.of(2, 64, 131)
    assert((a & b) === ObjSet.of(2, 64))
    assert((a & ObjSet.empty).isEmpty)
  }

  test("McosResult prints objects and frames compactly") {
    val r = McosResult(7, ObjSet.of(1, 2), Vector(5, 6, 7))
    assert(r.toString === "McosResult(7, {1,2}, [5,6,7])")
  }

  test("generators expose monotone intersection counters") {
    val spec = WindowSpec(3, 1)
    Seq("NAIVE", "MFS", "SSG").foreach { m =>
      val g = McosGenerator(m, spec)
      g.processFrame(0, ObjSet.of(1, 2))
      val c1 = g.intersections
      g.processFrame(1, ObjSet.of(1, 3))
      assert(g.intersections >= c1, s"$m counter must not decrease")
      assert(g.stateCount > 0)
    }
  }

  Seq("NAIVE", "MFS", "SSG").foreach { m =>
    test(s"$m rejects a fid that does not follow the previous one") {
      val g = McosGenerator(m, WindowSpec(4, 2))
      val negative = intercept[IllegalArgumentException](g.processFrame(-1, ObjSet.of(1)))
      assert(negative.getMessage.startsWith("frame -1 arrived with a negative fid"), negative.getMessage)
      g.processFrame(3, ObjSet.of(1, 2))
      assertThrows[IllegalArgumentException](g.processFrame(3, ObjSet.of(1)))
      assertThrows[IllegalArgumentException](g.processFrame(2, ObjSet.of(1)))
      val states = g.stateCount
      val out = g.processFrame(4, ObjSet.of(1, 2))
      assert(g.stateCount === states && out.map(_.frames) === Vector(Vector(3, 4)),
             "a rejected frame must leave the state untouched")
    }
  }

  test("a negative object id fails loudly") {
    def rejects(id: Int)(build: => Any): Unit = {
      val e = intercept[IllegalArgumentException](build)
      assert(e.getMessage === s"object id $id is negative: ids must be non-negative")
    }
    rejects(-1)(ObjSet.of(3, -1))
    rejects(-7)(ObjSet.from(Seq(-7)))
    import repro.query.{CnfQuery, Condition, Op, QueryPipeline}
    val carQuery = CnfQuery(0, Vector(Vector(Condition("car", Op.Ge, 1))))
    val pipe = new QueryPipeline(Vector(carQuery), WindowSpec(4, 2), "MFS")
    rejects(-2)(pipe.processFrame(0, Seq(-2 -> "car")))
  }
}
