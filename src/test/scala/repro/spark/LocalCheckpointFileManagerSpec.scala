package repro.spark

import java.io.File
import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermissions
import scala.jdk.CollectionConverters._
import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{ChecksumException, FileAlreadyExistsException, FileUtil, Path}
import org.apache.hadoop.fs.permission.FsPermission
import org.apache.spark.sql.Encoder
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.WindowSpec
import repro.video.{Profiles, SynthVideo, VRRow}

/** The checkpoint manager `McosStreaming` selects writes the files Spark's
  * default manager writes (mode, `.crc` sibling, atomic rename), and a
  * streaming query on it starts no `chmod` or `readlink` process.
  */
class LocalCheckpointFileManagerSpec extends SparkSpec {

  private def mode(file: File): String =
    PosixFilePermissions.toString(Files.getPosixFilePermissions(file.toPath))

  test("createAtomic writes Hadoop's mode and a checked .crc sibling, never overwrites, and cancel leaves nothing") {
    val dir = Files.createTempDirectory("local-cfm")
    try {
      // A umask other than the process's usual 022, so the mode comes from
      // Hadoop's setPermission, not from how the JVM created the file. The
      // file system is not cached, so this umask stays out of the session's.
      val conf = new Configuration()
      conf.set(FsPermission.UMASK_LABEL, "027")
      conf.setBoolean("fs.file.impl.disable.cache", true)
      val want = FsPermission.getFileDefault.applyUMask(FsPermission.getUMask(conf)).toString
      assert(want === "rw-r-----")
      val fm = new LocalCheckpointFileManager(new Path(dir.toUri), conf)
      val target = new Path(dir.toUri.toString, "0.delta")
      val bytes = Array.tabulate[Byte](3000)(i => (i * 31).toByte)

      val out = fm.createAtomic(target, overwriteIfPossible = false)
      out.write(bytes)
      out.close()
      val file = dir.resolve("0.delta").toFile
      val crc = dir.resolve(".0.delta.crc").toFile
      assert(file.isFile && crc.isFile)
      assert(mode(file) === want)
      assert(mode(crc) === want)
      val in = fm.open(target)
      try assert(in.readAllBytes().sameElements(bytes)) finally in.close()

      val again = fm.createAtomic(target, overwriteIfPossible = false)
      again.write(Array[Byte](1, 2, 3))
      intercept[FileAlreadyExistsException](again.close())
      val kept = fm.open(target)
      try assert(kept.readAllBytes().sameElements(bytes)) finally kept.close()

      val cancelled = fm.createAtomic(new Path(dir.toUri.toString, "1.delta"), overwriteIfPossible = true)
      cancelled.write(bytes)
      cancelled.cancel()
      assert(!dir.toFile.list().exists(_.contains("1.delta")))

      // The .crc sibling is checked on read.
      val raw = Files.readAllBytes(file.toPath)
      raw(0) = (raw(0) ^ 1).toByte
      Files.write(file.toPath, raw)
      val corrupt = fm.open(target)
      try intercept[ChecksumException](corrupt.readAllBytes()) finally corrupt.close()
    } finally FileUtil.fullyDelete(dir.toFile)
  }

  test("three micro-batches of a McosStreaming query start no chmod or readlink process") {
    import spark.implicits._
    val enc: Encoder[VRRow] = newProductEncoder[VRRow]
    val feed = SynthVideo.generate(Profiles.V1)
    val batches = feed.rows.filter(_.fid < 30).groupBy(_.fid / 10).toSeq.sortBy(_._1).map(_._2)
    assert(batches.size === 3)
    val dir = Files.createTempDirectory("fork-guard")
    val jfr = Files.createTempFile("fork-guard", ".jfr")
    val recording = new Recording()
    try {
      recording.enable("jdk.ProcessStart")
      recording.start()
      val ms = MemoryStream[VRRow](enc, spark)
      val query = McosStreaming.run(ms.toDS(), WindowSpec(w = 30, d = 18), "MFS")
        .writeStream.format("memory").queryName("fork_guard").outputMode("append")
        .option("checkpointLocation", dir.toString).start()
      try batches.foreach { rows => ms.addData(rows); query.processAllAvailable() }
      finally query.stop()
      // A process this test starts itself shows that the recording sees forks.
      new ProcessBuilder("true").start().waitFor()
      recording.stop()
      recording.dump(jfr)
      val commands = RecordingFile.readAllEvents(jfr).asScala.toVector.map(_.getString("command"))
      assert(commands.exists(_.split(' ').head.endsWith("true")), commands)
      val forks = commands.filter(c => Seq("chmod", "readlink").exists(c.split(' ').head.endsWith))
      assert(forks.isEmpty, s"${forks.size} forks, first: ${forks.take(3)}")
    } finally {
      recording.close()
      Files.delete(jfr)
      FileUtil.fullyDelete(dir.toFile)
    }
  }
}
