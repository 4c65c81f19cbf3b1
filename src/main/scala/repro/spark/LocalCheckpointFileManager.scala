package repro.spark

import java.nio.file.Files
import java.nio.file.attribute.PosixFilePermission
import java.util.{EnumSet, Set => JSet}
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{FileSystem, FilterFileSystem, LocalFileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission
import org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager

/** Streaming checkpoint I/O on the local file system that starts no process.
  *
  * Without the native `libhadoop`, Hadoop's local file system runs a shell
  * command for two calls a checkpoint write makes: `FileUtil.readLink`
  * (`readlink`, reached from `FileContext.rename`, which Spark's default
  * manager uses for `file:` paths) and `RawLocalFileSystem.setPermission`
  * (`chmod`, for every new file and its `.crc` sibling). A four-partition
  * stream paid 100 of them per micro-batch.
  *
  * This manager is Spark's `FileSystemBasedCheckpointFileManager`, which
  * renames through `FileSystem.rename` and so never resolves links. When the
  * path's file system writes through Hadoop's `RawLocalFileSystem`, the
  * manager writes through its own `LocalFileSystem` instead, whose raw file
  * system sets modes with `java.nio` from the permission bits. That covers
  * Hadoop's `LocalFileSystem` and wrappers of it: with Hive's jars on the
  * class path, `file:` resolves to Hive's `ProxyLocalFileSystem`, which
  * checkpoint I/O uses only as the checksummed local file system it wraps.
  *
  * Everything else stays Hadoop's and Spark's: the same modes, the `.crc`
  * sibling and its check on read, the temp file renamed into place, and
  * `FileAlreadyExistsException` when the target exists and must not be
  * overwritten. Like every `FileSystem`-based manager it checks that target
  * and renames in two steps, which is safe with one writer per checkpoint,
  * as a streaming query is.
  */
class LocalCheckpointFileManager(path: Path, hadoopConf: Configuration)
    extends FileSystemBasedCheckpointFileManager(path, hadoopConf) {

  override protected val fs: FileSystem = path.getFileSystem(hadoopConf) match {
    case local: FilterFileSystem if local.getRawFileSystem.getClass == classOf[RawLocalFileSystem] =>
      val checked = new LocalFileSystem(new LocalCheckpointFileManager.NioModeFileSystem)
      checked.setConf(hadoopConf)
      checked.initialize(local.getUri, hadoopConf)
      checked
    case other => other
  }
}

object LocalCheckpointFileManager {

  /** A raw local file system whose `setPermission` sets the mode in the JVM.
    * `java.nio` cannot set the sticky bit, so a mode with it still goes to
    * Hadoop's own `chmod`.
    */
  private final class NioModeFileSystem extends RawLocalFileSystem {
    override def setPermission(p: Path, permission: FsPermission): Unit =
      if (permission.getStickyBit) super.setPermission(p, permission)
      else Files.setPosixFilePermissions(pathToFile(p).toPath, posix(permission.toShort))
  }

  /** The rwx bits of a mode as `java.nio` permissions. `PosixFilePermission`
    * lists them from owner read (0400) down to others execute (0001).
    */
  private def posix(mode: Int): JSet[PosixFilePermission] = {
    val set = EnumSet.noneOf(classOf[PosixFilePermission])
    PosixFilePermission.values.zipWithIndex.foreach { case (p, i) =>
      if ((mode & (0x100 >> i)) != 0) set.add(p)
    }
    set
  }
}
