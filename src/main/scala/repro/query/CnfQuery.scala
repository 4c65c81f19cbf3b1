package repro.query

import scala.util.Random

/** Comparison operator of a query condition `label θ n` (paper §2). */
sealed abstract class Op(val symbol: String) extends Serializable {
  def eval(v: Int, n: Int): Boolean
}
object Op {
  case object Le extends Op("<=") { def eval(v: Int, n: Int): Boolean = v <= n }
  case object Eq extends Op("=")  { def eval(v: Int, n: Int): Boolean = v == n }
  case object Ge extends Op(">=") { def eval(v: Int, n: Int): Boolean = v >= n }
  val all: Vector[Op] = Vector(Le, Eq, Ge)
}

/** One CNF condition: the number of objects of class `label` satisfies
  * `count θ n` (e.g. `'car' >= 2`).
  */
final case class Condition(label: String, op: Op, n: Int) {
  def eval(aggs: Map[String, Int]): Boolean = op.eval(aggs.getOrElse(label, 0), n)
  override def toString: String = s"$label ${op.symbol} $n"
}

/** A CNF query: a conjunction of disjunctions of conditions, evaluated over
  * the class-label aggregates of one MCOS. The window/duration context (w, d)
  * is carried by the pipeline's [[repro.core.WindowSpec]] — the experiments
  * group queries sharing the same window, as §3 prescribes.
  */
final case class CnfQuery(id: Int, clauses: Vector[Vector[Condition]]) {
  require(clauses.nonEmpty && clauses.forall(_.nonEmpty), "CNF must be non-degenerate")

  /** Reference (index-free) evaluation — the spec CNFEvalE must match. */
  def eval(aggs: Map[String, Int]): Boolean =
    clauses.forall(_.exists(_.eval(aggs)))

  /** Eligible for §5.3 result pruning: Proposition 1 holds only when every
    * condition uses ≥ (class counts only shrink on subsets).
    */
  def geOnly: Boolean = clauses.forall(_.forall(_.op == Op.Ge))

  def labels: Set[String] = clauses.flatten.map(_.label).toSet

  override def toString: String =
    clauses.map(_.mkString("(", " ∨ ", ")")).mkString(" ∧ ")
}

/** Deterministic random query workloads for the §6.3 experiments. */
object CnfQuery {
  /** The object classes the paper's experiments retain (§6.1). */
  val classes: Vector[String] = Vector("person", "car", "truck", "bus")

  /** Mixed-operator CNF queries (Fig 8 workload), thresholds in [1, maxN]. */
  def randomQueries(n: Int, seed: Long, maxN: Int = 5): Vector[CnfQuery] = {
    val rnd = new Random(seed)
    Vector.tabulate(n) { qid =>
      val clauses = Vector.fill(1 + rnd.nextInt(3)) {
        Vector.fill(1 + rnd.nextInt(3)) {
          Condition(classes(rnd.nextInt(classes.size)),
                    Op.all(rnd.nextInt(Op.all.size)),
                    1 + rnd.nextInt(maxN))
        }
      }
      CnfQuery(qid, clauses)
    }
  }

  /** ≥-only queries with thresholds in [nMin, nMin + 2] (Fig 9 workload:
    * "100 queries containing ≥ conditions only", n_min varied).
    */
  def geQueries(n: Int, nMin: Int, seed: Long): Vector[CnfQuery] = {
    val rnd = new Random(seed)
    Vector.tabulate(n) { qid =>
      val clauses = Vector.fill(1 + rnd.nextInt(2)) {
        Vector.fill(1 + rnd.nextInt(2)) {
          Condition(classes(rnd.nextInt(classes.size)), Op.Ge,
                    nMin + rnd.nextInt(3))
        }
      }
      CnfQuery(qid, clauses)
    }
  }
}
