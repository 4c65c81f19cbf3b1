package repro.core

import repro.core.ObjSet.ObjSet

/** The NAIVE baseline of §6.2: the maintenance core with `keepInvalid`.
  *
  * A state, once created, is kept (and intersected with every arriving frame)
  * for the rest of the feed, even after its key frames have left the window,
  * so states that stopped being maximal linger; removing them is what MFS and
  * SSG add. NAIVE never drops a state and filters at output with the core's
  * result rule: a state is emitted only while its marks are valid
  * (`maxMark >= winStart`) and it holds at least `d` frames.
  *
  * Serialized form: the core's per-state records and nothing else.
  */
final class NaiveGenerator(spec: WindowSpec,
                           terminated: Option[ObjSet => Boolean] = None)
    extends McosCore[McosState](spec, terminated, keepInvalid = true) {

  protected def newState(ids: ObjSet, w: Int): McosState = new McosState(ids, w)
}
