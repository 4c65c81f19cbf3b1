package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** The Strict State Graph approach of §4.3.
  *
  * States are organized in a DAG ordered by strict object-set containment
  * (Property 1): an edge `s → s'` means `ID_{s'} ⊂ ID_s`. Traversal for an
  * arriving frame starts from the parentless roots (principal states and
  * formerly-principal survivors) and — this is SSG's pruning power — skips an
  * entire subtree as soon as a state's intersection with the arriving object
  * set is empty, which is sound because a descendant's object set is contained
  * in its ancestor's (Property 1). MFS/NAIVE instead intersect every state.
  *
  * The implementation follows Algorithm 1 (State Traversal) and Algorithm 2
  * (CNPS) restructured into per-frame phases that keep the hot path
  * allocation-light:
  *
  *  1. an explicit-stack DFS that expires visited states, flags the invalid
  *     ones (Theorem 4: every key-frame mark expired), computes intersections,
  *     and accumulates per-object-set contributions (generator sources +
  *     key-frame marks — see DESIGN.md §3 for the maxMark equivalence);
  *  2. an apply phase that updates/creates nodes and performs the §4.3.4 edge
  *     surgery keeping Property 2 (no child contained in a sibling);
  *  3. CNPS for a brand-new principal state;
  *  4. deferred removal of flagged states, re-homing their children.
  *
  * The Result State Set follows §4.3.7: satisfied states found on the graph
  * this frame, unioned with the still-satisfied carry-over from the previous
  * frame (states the traversal legitimately skipped).
  *
  * Serialized form: the window spec, termination hook, counters and last
  * fid; then the nodes in `states` order, each with its object set, frames,
  * `maxMark`, creators, last visit and liveness; then each node's children
  * and each node's parents, the roots and the carried-over result set, all
  * as lists of node positions in that order. Writing and reading never
  * recurse, so the graph's depth cannot overflow the stack, and a restored
  * graph iterates its states, edges, roots and results in the original
  * order.
  */
final class SsgGenerator(val spec: WindowSpec,
                         terminated: Option[ObjSet => Boolean] = None)
    extends McosGenerator {

  private final class Node(val ids: ObjSet) {
    val frames = new FrameSet
    /** Key-frame marks in compact form (DESIGN.md §3): valid iff >= winStart. */
    var maxMark: Int = -1
    /** Frames that created this state directly; principal while non-empty. */
    val creators = new FrameSet
    var lastVisit: Int = -1
    var alive: Boolean = true
    val children = mutable.LinkedHashSet.empty[Node]
    val parents  = mutable.LinkedHashSet.empty[Node]
    def isPrincipal: Boolean = creators.nonEmpty
  }

  private final class Contrib {
    var candMark: Int = -1
    val sources = mutable.ArrayBuffer.empty[Node]
  }

  @transient private var states = mutable.LinkedHashMap.empty[ObjSet, Node]
  @transient private var roots  = mutable.LinkedHashSet.empty[Node]
  @transient private var resultSet = mutable.LinkedHashSet.empty[Node]
  private var interCount = 0L

  override def stateCount: Int = states.size
  override def intersections: Long = interCount

  /** Test hook: maintained states as (object set → (frames, best key-frame)). */
  private[core] def snapshot: Map[ObjSet, (Vector[Int], Int)] =
    states.view.map { case (ids, s) => ids -> (s.frames.toVector, s.maxMark) }.toMap

  /** Test hook: edges as (parent object set → child object sets). */
  private[core] def edges: Map[ObjSet, Set[ObjSet]] =
    states.view.map { case (ids, s) => ids -> s.children.iterator.map(_.ids).toSet }.toMap

  override def processFrame(fid: Int, objects: ObjSet): Vector[McosResult] = {
    advanceTo(fid)
    val start = spec.winStart(fid)
    val contribs = mutable.LinkedHashMap.empty[ObjSet, Contrib]
    val cnpsCandidates = mutable.ArrayBuffer.empty[ObjSet]
    val deadList = mutable.ArrayBuffer.empty[Node]

    /** Flag an invalid state; edges stay in place until [[buryDead]]. */
    def kill(node: Node): Unit = {
      node.alive = false
      states.remove(node.ids)
      deadList += node
    }

    // ---- Phase 1: State Traversal (Algorithm 1) --------------------------
    val stack = new java.util.ArrayDeque[Node]
    roots.foreach(stack.push)
    while (!stack.isEmpty) {
      val node = stack.pop()
      if (node.lastVisit != fid && node.alive) {
        node.lastVisit = fid
        node.creators.expire(start)
        if (node.maxMark < start) {
          // Invalid (all key frames expired) — Theorem 4. Children may still
          // intersect the arriving frame, so keep walking through.
          kill(node)
          node.children.foreach(stack.push)
        } else {
          node.frames.expire(start)
          if (objects.nonEmpty) {
            interCount += 1
            val inter = node.ids & objects
            if (inter.nonEmpty) { // else: Property 1 — whole subtree disjoint
              val c = contribs.getOrElseUpdate(inter, new Contrib)
              if (node.maxMark > c.candMark) c.candMark = node.maxMark
              c.sources += node
              if (node.isPrincipal && inter != objects) cnpsCandidates += inter
              node.children.foreach(stack.push)
            }
          }
        }
      }
    }

    var out = Vector.empty[McosResult]
    val touched = mutable.ArrayBuffer.empty[Node]
    var newPrincipal: Option[Node] = None

    if (objects.nonEmpty) {
      // The arriving frame always (re)creates its principal state, with the
      // frame itself as a key frame (State Marking rule 1).
      val cp = contribs.getOrElseUpdate(objects, new Contrib)
      if (fid > cp.candMark) cp.candMark = fid

      // ---- Phase 2: apply updates / create nodes -------------------------
      contribs.foreach { case (ids, c) =>
        states.get(ids) match {
          case Some(node) =>
            node.frames.expire(start)
            node.frames.append(fid)
            if (c.candMark > node.maxMark) node.maxMark = c.candMark
            touched += node
          case None =>
            if (!terminated.exists(_(ids))) {
              val node = new Node(ids)
              c.sources.foreach(src => node.frames.mergeFrom(src.frames))
              node.frames.append(fid)
              node.maxMark = c.candMark
              states.update(ids, node)
              c.sources.foreach(src => addChild(src, node))
              // A node that could not be attached anywhere (no sources, or
              // only dead relatives mid-frame) must be a traversal root.
              if (node.parents.isEmpty) roots += node
              touched += node
              if (ids == objects) newPrincipal = Some(node)
            }
        }
      }

      // Register the principal occurrence; for a brand-new principal state,
      // connect it to the graph per CNPS (Algorithm 2).
      states.get(objects).foreach { ns =>
        ns.creators.expire(start)
        ns.creators.append(fid)
      }
      newPrincipal.foreach(ns => connectNewPrincipal(ns, cnpsCandidates))
    }

    // ---- Result State Set (§4.3.7): graph finds ∪ carry-over -------------
    val newSR = mutable.LinkedHashSet.empty[Node]
    touched.foreach { n =>
      if (n.alive && n.frames.size >= spec.d) newSR += n
    }
    resultSet.foreach { n =>
      if (n.alive && n.lastVisit != fid) {
        // Legitimately skipped by traversal: expire lazily here.
        n.lastVisit = fid
        n.creators.expire(start)
        if (n.maxMark < start) kill(n) else n.frames.expire(start)
      }
      if (n.alive && n.frames.size >= spec.d) newSR += n
    }
    resultSet = newSR
    out = resultSet.iterator.map(n => McosResult(fid, n.ids, n.frames.toVector)).toVector

    // Amortized sweep: traversal prunes what it visits, but states that never
    // intersect later frames would otherwise linger invalid forever.
    if (fid % spec.w == 0) {
      states.values.toArray.foreach { n =>
        if (n.alive && n.maxMark < start) kill(n)
      }
    }

    buryDead(deadList)
    out
  }

  /** §4.3.4 edge maintenance on deletion, deferred to frame end: detach every
    * flagged state and re-home its children under its surviving parents (or
    * promote them to roots).
    */
  private def buryDead(deadList: mutable.ArrayBuffer[Node]): Unit = {
    if (deadList.isEmpty) return
    deadList.foreach { d =>
      roots -= d
      resultSet -= d
      d.parents.foreach(p => p.children -= d)
    }
    deadList.foreach { d =>
      d.children.foreach { c =>
        c.parents -= d
        if (c.alive) {
          d.parents.foreach(p => if (p.alive) addChild(p, c))
          if (c.parents.isEmpty) roots += c
        }
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
          if (ch.parents.isEmpty) roots += ch
        }
        parent.children += child
        child.parents += parent
        roots -= child
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
      .filter(n => n.alive && (n ne ns) && n.ids.subsetOf(ns.ids))
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

  // Between frames every node on an edge, root or result is in `states`.
  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val nodes = states.valuesIterator.toArray
    val pos = mutable.HashMap.empty[Node, Int]
    out.writeInt(nodes.length)
    nodes.foreach { n =>
      pos.update(n, pos.size)
      ObjSet.write(out, n.ids)
      n.frames.writeTo(out)
      out.writeInt(n.maxMark)
      n.creators.writeTo(out)
      out.writeInt(n.lastVisit)
      out.writeBoolean(n.alive)
    }
    def writeNodes(ns: mutable.LinkedHashSet[Node]): Unit = {
      out.writeInt(ns.size)
      ns.foreach(n => out.writeInt(pos(n)))
    }
    nodes.foreach(n => writeNodes(n.children))
    nodes.foreach(n => writeNodes(n.parents))
    writeNodes(roots)
    writeNodes(resultSet)
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    val nodes = Array.fill(in.readInt()) {
      val n = new Node(ObjSet.read(in))
      n.frames.readFrom(in)
      n.maxMark = in.readInt()
      n.creators.readFrom(in)
      n.lastVisit = in.readInt()
      n.alive = in.readBoolean()
      n
    }
    def readNodes(into: mutable.LinkedHashSet[Node]): Unit =
      (0 until in.readInt()).foreach(_ => into += nodes(in.readInt()))
    states = mutable.LinkedHashMap.empty
    nodes.foreach(n => states.update(n.ids, n))
    nodes.foreach(n => readNodes(n.children))
    nodes.foreach(n => readNodes(n.parents))
    roots = mutable.LinkedHashSet.empty
    readNodes(roots)
    resultSet = mutable.LinkedHashSet.empty
    readNodes(resultSet)
  }
}
