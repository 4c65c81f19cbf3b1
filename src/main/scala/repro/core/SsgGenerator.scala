package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** The Strict State Graph approach of §4.3: the maintenance core with its
  * own visiting order and a graph to keep.
  *
  *  - Visiting: states form a DAG by strict containment (Property 1: an edge
  *    `s → s'` means `ID_{s'} ⊂ ID_s`). State Traversal (Algorithm 1) walks
  *    it depth first from the roots, the states without a parent, and skips a
  *    subtree once a state's intersection is empty; an invalid state met on
  *    the way is killed by the core's rule (Theorem 4) and walked through.
  *  - Edges: created states are attached under their sources by the §4.3.4
  *    surgery that keeps Property 2 (no child contained in a sibling); a new
  *    principal state is connected by CNPS (Algorithm 2); killed states are
  *    detached at frame end and their children re-homed.
  *  - Results (§4.3.7): the traversal may skip a state that holds `d`
  *    frames, so SSG relies on the core's result pass, which kills or expires
  *    each state with `d` stored frames before it emits the live ones. Every
  *    `w` frames that pass covers every state, so invalid states the
  *    traversal never reaches die too. The states the core killed in the
  *    frame are then detached from the graph.
  *
  * Serialized form: the core's per-state records, then per state its
  * principal mark, then each state's children and parents as lists of state
  * positions. Nothing recurses, so graph depth cannot overflow the stack, and
  * a restored graph iterates in the original order.
  */
final class SsgGenerator(spec: WindowSpec,
                         terminated: Option[ObjSet => Boolean] = None)
    extends McosCore[SsgGenerator.Node](spec, terminated) {
  import SsgGenerator.Node

  // Per frame: intersections the traversal got from principal states.
  @transient private var cnpsCandidates = mutable.ArrayBuffer.empty[ObjSet]

  protected def newState(ids: ObjSet, w: Int): Node = new Node(ids, w)

  /** Test hook: edges as (parent object set → child object sets). */
  private[core] def edges: Map[ObjSet, Set[ObjSet]] =
    states.view.map { case (ids, s) => ids -> s.children.iterator.map(_.ids).toSet }.toMap

  /** State Traversal (Algorithm 1). */
  override protected def visit(fid: Int, start: Int, objects: ObjSet,
                               contribs: mutable.LinkedHashMap[ObjSet, Contrib[Node]]): Unit = {
    cnpsCandidates = mutable.ArrayBuffer.empty
    val intersect = objects.nonEmpty
    val stack = new java.util.ArrayDeque[Node]
    states.valuesIterator.filter(_.parents.isEmpty).foreach(stack.push)
    while (!stack.isEmpty) {
      val node = stack.pop()
      if (node.lastVisit != fid) {
        node.lastVisit = fid
        if (!expireOrKill(node, start)) {
          // Children may still intersect the arriving frame: walk through.
          node.children.foreach(stack.push)
        } else if (intersect) {
          val inter = contribute(node, objects, contribs)
          if (inter.nonEmpty) { // else: Property 1 — whole subtree disjoint
            if (node.principalAt >= start && inter != objects) cnpsCandidates += inter
            node.children.foreach(stack.push)
          }
        }
      }
    }
  }

  /** The frame's graph upkeep (attach created states, register the principal
    * occurrence, CNPS), the core's result pass, then burying the states the
    * core killed in the frame.
    */
  override protected def results(fid: Int, start: Int, objects: ObjSet,
                                 contribs: mutable.LinkedHashMap[ObjSet, Contrib[Node]]): Vector[McosResult] = {
    if (objects.nonEmpty) {
      // Attach the created states in creation order. The apply step reads no
      // edges, so this makes the edges that attaching each state as it was
      // created would.
      contribs.valuesIterator.foreach(c => if (c.created) c.sources.foreach(addChild(_, c.state)))
      // Register the principal occurrence; connect a brand-new principal
      // state to the graph per CNPS.
      val cp = contribs(objects)
      if (cp.state != null) {
        cp.state.principalAt = fid
        if (cp.created) connectNewPrincipal(cp.state, cnpsCandidates)
      }
    }
    val out = super.results(fid, start, objects, contribs)
    buryDead()
    out
  }

  /** §4.3.4 edge maintenance on deletion, deferred to frame end: detach every
    * killed state and re-home its children under its surviving parents (a
    * child left without parents becomes a root).
    */
  private def buryDead(): Unit = {
    killed.foreach(d => d.parents.foreach(p => p.children -= d))
    killed.foreach { d =>
      d.children.foreach { c =>
        c.parents -= d
        if (c.alive) d.parents.foreach(p => if (p.alive) addChild(p, c))
      }
      d.parents.clear()
      d.children.clear()
    }
  }

  /** Add edge parent→child maintaining Property 2: if an existing child of
    * `parent` already contains `child`, delegate below it; children of
    * `parent` contained in `child` are re-homed under `child` (§4.3.4).
    */
  private def addChild(parent: Node, child: Node): Unit = {
    if ((parent eq child) || !parent.alive || !child.alive) return
    if (parent.children.contains(child)) return
    // Dead children linger until buryDead: never delegate through them.
    parent.children.find(ch => ch.alive && (ch ne child) && child.ids.subsetOf(ch.ids)) match {
      case Some(ch) => addChild(ch, child)
      case None =>
        val toMove = parent.children.filter(ch =>
          ch.alive && (ch ne child) && ch.ids.subsetOf(child.ids))
        toMove.foreach { ch =>
          parent.children -= ch
          ch.parents -= parent
          addChild(child, ch)
        }
        parent.children += child
        child.parents += parent
    }
  }

  /** CNPS (Algorithm 2): connect a brand-new principal state `ns` to the
    * graph. Candidates are the intersection states obtained from each visited
    * principal (Theorem 2), taken in descending object-set size; a candidate
    * already reachable from an earlier pick is skipped (Property 2).
    */
  private def connectNewPrincipal(ns: Node, candidateSets: mutable.ArrayBuffer[ObjSet]): Unit = {
    if (candidateSets.isEmpty) return
    val cands = candidateSets.distinct
      .flatMap(states.get)
      .filter(n => (n ne ns) && n.ids.subsetOf(ns.ids))
      .sortBy(-_.ids.size)
    val reached = mutable.HashSet.empty[Node]
    cands.foreach { c =>
      if (!reached.contains(c)) {
        addChild(ns, c)
        collectReachable(c, reached)
      }
    }
  }

  private def collectReachable(n: Node, acc: mutable.HashSet[Node]): Unit =
    if (acc.add(n)) n.children.foreach(collectReachable(_, acc))

  // Between frames every node on an edge is in `states` and alive, and the
  // next fid is newer than any last visit: both take defaults. The roots are
  // the restored states without parents, in the original order.
  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val nodes = states.valuesIterator.toArray
    val pos = mutable.HashMap.empty[Node, Int]
    nodes.foreach { n =>
      pos.update(n, pos.size)
      out.writeInt(n.principalAt)
    }
    def writeNodes(ns: mutable.LinkedHashSet[Node]): Unit = {
      out.writeInt(ns.size)
      ns.foreach(n => out.writeInt(pos(n)))
    }
    nodes.foreach(n => writeNodes(n.children))
    nodes.foreach(n => writeNodes(n.parents))
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    val nodes = states.valuesIterator.toArray
    nodes.foreach(n => n.principalAt = in.readInt())
    def readNodes(into: mutable.LinkedHashSet[Node]): Unit =
      (0 until in.readInt()).foreach(_ => into += nodes(in.readInt()))
    nodes.foreach(n => readNodes(n.children))
    nodes.foreach(n => readNodes(n.parents))
  }
}

object SsgGenerator {
  private[core] final class Node(ids: ObjSet, w: Int) extends McosState(ids, w) {
    /** Newest frame whose object set is this state's; principal while that
      * frame is in the window. Unset lies below every (early, negative)
      * window start.
      */
    var principalAt: Int = Int.MinValue
    var lastVisit: Int = -1
    val children = mutable.LinkedHashSet.empty[Node]
    val parents  = mutable.LinkedHashSet.empty[Node]
  }
}
