package repro.core

import scala.collection.mutable
import repro.core.ObjSet.ObjSet

/** The NAIVE baseline of §6.2: the maintenance core with `keepInvalid`.
  *
  * A state, once created, is kept (and intersected with every arriving frame)
  * for the rest of the feed, even after its frame set empties, so states that
  * stopped being maximal linger; removing them is what MFS and SSG add. At
  * output time the duration filter is applied and then non-maximal object
  * sets are discarded ("check whether they share the same frame set … keep
  * the object set with the maximum size") by a dominance scan, which is exact
  * even for partially tracked lingerers.
  *
  * Serialized form: the core's per-state records and nothing else.
  */
final class NaiveGenerator(val spec: WindowSpec,
                           terminated: Option[ObjSet => Boolean] = None)
    extends McosCore[McosState](terminated, keepInvalid = true) {

  protected def newState(ids: ObjSet): McosState = new McosState(ids)

  /** Duration filter then maximality: drop any satisfied state dominated by a
    * strictly larger object set appearing in at least the same frames.
    */
  override protected def results(fid: Int, start: Int, objects: ObjSet,
                                 contribs: mutable.LinkedHashMap[ObjSet, Contrib[McosState]]): Vector[McosResult] = {
    val satisfied = super.results(fid, start, objects, contribs)
    satisfied.filterNot { r =>
      satisfied.exists { o =>
        r.objects != o.objects && r.objects.subsetOf(o.objects) && isSubset(r.frames, o.frames)
      }
    }
  }

  private def isSubset(a: Vector[Int], b: Vector[Int]): Boolean = {
    if (a.size > b.size) return false
    var i = 0; var j = 0
    while (i < a.size && j < b.size) {
      if (a(i) == b(j)) { i += 1; j += 1 }
      else if (a(i) > b(j)) j += 1
      else return false
    }
    i == a.size
  }
}
