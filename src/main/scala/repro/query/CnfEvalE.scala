package repro.query

import scala.collection.mutable

/** CNFEvalE (§5.2): the Boolean-expression inverted index of Whang et al.
  * [24] extended with inequality predicates.
  *
  * One index list is kept per class label and operator. Each holds the
  * condition values of that label and operator, with a posting list of
  * `(qid, disjId)` pairs per value (the `∈` predicate of the original
  * algorithm is implicit — conditions here are count comparisons). For an
  * input aggregate `(label, v)`:
  *
  *  - the ≥ list is value-ascending and the ≤ list value-descending, so the
  *    postings `v` satisfies form a prefix of each, scanned until `θ` fails,
  *  - the = list is probed at exactly `v`.
  *
  * A label absent from the input has count 0 (an MCOS with no `person`
  * satisfies `person <= 3`), so evaluation walks the union of index labels
  * rather than input labels. A query is TRUE once every disjunction id has at
  * least one satisfied posting — counted per query exactly as the counting
  * variant of [24].
  */
final class CnfEvalE private (queries: Vector[CnfQuery]) {

  private type Posting = (Int, Int) // (qid, disjId)

  private val clauseCount: Map[Int, Int] = queries.map(q => q.id -> q.clauses.size).toMap

  // (label, ≥ or ≤, value-sorted (value, postings))
  private val ranged = mutable.ArrayBuffer.empty[(String, Op, Array[(Int, Array[Posting])])]
  // label -> value -> postings
  private val eqIndex = mutable.HashMap.empty[String, Map[Int, Array[Posting]]]

  locally {
    val book = mutable.HashMap.empty[(String, Op), mutable.HashMap[Int, mutable.ArrayBuffer[Posting]]]
    for (q <- queries; (clause, disjId) <- q.clauses.zipWithIndex; c <- clause)
      book.getOrElseUpdate((c.label, c.op), mutable.HashMap.empty)
        .getOrElseUpdate(c.n, mutable.ArrayBuffer.empty) += ((q.id, disjId))
    book.foreach { case ((label, op), byValue) =>
      val postings = byValue.toArray.map { case (n, ps) => (n, ps.toArray) }
      if (op == Op.Eq) eqIndex(label) = postings.toMap
      else {
        val ascending = postings.sortBy(_._1)
        ranged += ((label, op, if (op == Op.Ge) ascending else ascending.reverse))
      }
    }
  }

  /** Query ids satisfied by the given class-count aggregates. */
  def matching(aggs: Map[String, Int]): Set[Int] = {
    // per-query set of satisfied disjunction ids
    val satisfied = mutable.HashMap.empty[Int, mutable.BitSet]
    def hit(p: Posting): Unit =
      satisfied.getOrElseUpdate(p._1, mutable.BitSet.empty) += p._2

    ranged.foreach { case (label, op, list) =>
      val v = aggs.getOrElse(label, 0)
      var i = 0
      while (i < list.length && op.eval(v, list(i)._1)) { list(i)._2.foreach(hit); i += 1 }
    }
    eqIndex.foreach { case (label, byValue) =>
      byValue.get(aggs.getOrElse(label, 0)).foreach(_.foreach(hit))
    }

    satisfied.iterator.collect {
      case (qid, disjs) if disjs.size == clauseCount(qid) => qid
    }.toSet
  }

  /** True iff at least one query matches — the §5.3 termination test. */
  def anyMatch(aggs: Map[String, Int]): Boolean = matching(aggs).nonEmpty
}

object CnfEvalE {
  def apply(queries: Seq[CnfQuery]): CnfEvalE = {
    val qs = queries.toVector
    require(qs.map(_.id).distinct.size == qs.size, "query ids must be unique")
    new CnfEvalE(qs)
  }
}
