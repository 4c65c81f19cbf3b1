package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** One recorded call into a layer: `parent` is the id of the span that
  * caused it (-1 for a root), `counts` are read at the same boundary.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      counts: Seq[(String, Long)])

/** In-memory span recorder for the traced run. Spans are kept in memory and
  * written out once, when the run ends. A disabled tracer records nothing
  * and returns span id -1.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]

  def open(name: String, parent: Int = -1): Int =
    if (!enabled) -1
    else {
      spans += Span(spans.size, parent, name, System.nanoTime(), 0L, Nil)
      spans.size - 1
    }

  def close(id: Int, counts: (String, Long)*): Unit =
    if (id >= 0) spans(id) = spans(id).copy(endNs = System.nanoTime(), counts = counts)

  def write(file: File): Unit = if (enabled) {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      val counts = s.counts.map { case (k, v) => s""""$k":$v""" }.mkString(",")
      out.println(s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},""" +
                  s""""start_ns":${s.startNs},"end_ns":${s.endNs},"counts":{$counts}}""")
    } finally out.close()
  }
}

/** Order statistics and the JSON the benchmark prints. */
object Stats {
  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) throw new IllegalStateException(s"metric is not a number: $x")
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}
