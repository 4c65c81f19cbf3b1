package perfbench

import scala.util.Random
import repro.core.WindowSpec
import repro.query.CnfQuery
import repro.video.{Profiles, SynthVideo, VRRow}

/** One named CNF query set of a workload (e.g. the Fig 9 sets at n_min=1, 8). */
final case class QuerySet(label: String, queries: Vector[CnfQuery])

/** One feed as the VR relation delivers it: the frames of the prefix that
  * carry at least one row, in fid order, with their labelled objects.
  */
final case class Feed(name: String, frames: Vector[(Int, Vector[(Int, String)])]) {
  def rows: Vector[VRRow] =
    frames.flatMap { case (fid, objs) => objs.map { case (oid, cls) => VRRow(name, fid, oid, cls) } }
}

/** A workload: which feeds, which queries and which variants.
  *
  * @param feeds     Table 6 profile names
  * @param idReuse   the §6.2 id-reuse knob `p_o`
  * @param pruned    whether MFS and SSG, in process and in the batch job,
  *                  run their `_O` variant (§5.3 termination) rather than
  *                  `_E`; NAIVE always runs `_E`, the Fig 9 baseline
  * @param prop1Feed feed whose whole length the traced run replays, with the
  *                  n_min=2 query set, to check that the `_O` variants answer
  *                  as MFS_E does
  */
final case class Workload(name: String, feeds: Vector[String], idReuse: Int,
                          querySets: Seed => Vector[QuerySet],
                          pruned: Boolean,
                          prop1Feed: Option[String] = None) {
  def prunes(method: String): Boolean = pruned && method != "NAIVE"
}

/** The workload seed. Seed 0 keeps the calibrated Table 6 streams and the
  * Fig 8/9 query seeds; any other seed derives new query seeds and redraws
  * the object classes of each stream (see [[Workloads.feed]]).
  */
final case class Seed(value: Long) {
  def derive(base: Long): Long = if (value == 0) base else base * 1000003L + value * 7919L
}

object Workloads {
  val spec: WindowSpec = WindowSpec(300, 240)
  /** Frames of each feed that a pass replays: results can start at frame
    * 240 and the window fills at 300. At 360 frames D2 yields 60 MCOS
    * results; at 330 only 2, and V1, M1, M2 and D1 none before frame 390.
    */
  val prefixFrames = 360
  val methods: Vector[String] = Vector("NAIVE", "MFS", "SSG")
  /** Method of the Spark batch leg (`McosBatch.runQueries`). */
  val batchMethod = "SSG"
  /** Share of `--seconds` for the in-process replays; the rest goes to Spark
    * batch jobs. The stream leg is a fixed number of micro-batches.
    */
  val replayShare = 0.85
  /** Frames of every feed added per streaming micro-batch. */
  val streamStep = 15
  val microBatches: Int = prefixFrames / streamStep

  // Fig 8 seeds its 50-query set with 1234 + 50; Fig 9 with 99 + n_min.
  private def mixed(seed: Seed) =
    Vector(QuerySet("mixed50", CnfQuery.randomQueries(50, seed.derive(1234 + 50))))
  def geOnly(nMin: Int, seed: Seed): QuerySet =
    QuerySet(s"nmin$nMin", CnfQuery.geQueries(100, nMin, seed.derive(99 + nMin)))

  val all: Vector[Workload] = Vector(
    Workload("replay-e", Vector("V1", "D2", "M1", "M2"), 0, mixed, pruned = false),
    Workload("prune-ge", Vector("D1", "D2", "M1"), 1, s => Vector(geOnly(1, s), geOnly(8, s)),
             pruned = true, prop1Feed = Some("D2")),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name (know: ${all.map(_.name).mkString(",")})"))

  /** Generate a feed's stream and cut it to its first `frames` frames.
    *
    * A seed other than 0 keeps the calibrated tracks (which ids are seen in
    * which frames) and redraws each track's class from the profile's class
    * mix. Redrawing the tracks themselves (`VideoProfile.seed`) changes the
    * MCOS work of a 400-frame prefix by 3-7x from seed to seed, which no
    * run-to-run bound could absorb; permuting the ids breaks the time
    * locality of tracker ids and slows the bitsets by about 3x.
    */
  def feed(name: String, idReuse: Int, seed: Seed, frames: Int = prefixFrames): Feed = {
    val p = Profiles.byName(name)
    val s = SynthVideo.generate(p, idReuse)
    val cut = s.frames.take(frames).zipWithIndex.collect {
      case (objs, fid) if objs.nonEmpty => (fid, objs)
    }
    if (seed.value == 0) Feed(name, cut)
    else {
      val rnd = new Random(seed.derive(p.seed))
      val total = p.classWeights.map(_._2).sum
      def draw(): String = {
        var x = rnd.nextDouble() * total
        p.classWeights.find { case (_, wt) => x -= wt; x < 0 }.getOrElse(p.classWeights.last)._1
      }
      // A reused id (p_o > 0) that changes class starts a new track.
      val newCls = s.frames.flatten.distinct.map(t => t -> draw()).toMap
      Feed(name, cut.map { case (fid, objs) =>
        (fid, objs.map(t => (t._1, newCls(t))))
      })
    }
  }
}
