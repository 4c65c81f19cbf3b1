package repro.core

import repro.core.ObjSet.ObjSet

/** The Marked Frame Set approach of §4.2: the maintenance core as it is.
  *
  * Every state is intersected with each arriving frame, and a state is
  * dropped the moment all its key frames (Definition 4) have left the window,
  * because its object set is then no longer an MCOS of any window frame set
  * (Theorem 1). The marks are kept in the compact form proved in DESIGN.md §3:
  * the state is valid while `maxMark >= winStart`, where a principal
  * occurrence marks the arriving frame and a regenerated intersection inherits
  * the best mark among its generators (the rule that puts `*3` but not `*2`
  * on `{AB}` in Table 2).
  *
  * Serialized form: the core's per-state records and nothing else.
  */
final class MfsGenerator(spec: WindowSpec,
                         terminated: Option[ObjSet => Boolean] = None)
    extends McosCore[McosState](spec, terminated) {

  protected def newState(ids: ObjSet, w: Int): McosState = new McosState(ids, w)
}
