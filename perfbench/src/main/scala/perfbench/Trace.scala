package perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** A timed call into one layer. Times are epoch milliseconds (fractional),
  * on the same clock as Spark's job events. Spans of one repetition share
  * `run`.
  */
case class Span(run: String, id: String, parent: String, name: String, phase: String,
                start: Double, end: Double)

/** Wall clock in epoch milliseconds with nanosecond resolution. */
object Clock {
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  def nowMs: Double = (System.nanoTime() + offsetNs) / 1e6
}

/** Records spans around calls into the program's layers. When disabled,
  * `span` only runs its body. When enabled, each span also sets a Spark job
  * group equal to its id, so Spark's job and task events can be attributed
  * to the innermost open span.
  */
class Tracer(sc: SparkContext, val enabled: Boolean, run: String = "") {
  private val stack = mutable.Stack.empty[String]
  private val done = mutable.ArrayBuffer.empty[Span]
  private var next = 0
  var phase = "run"

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      next += 1
      val id = s"s$next"
      val parent = stack.headOption.getOrElse("")
      stack.push(id)
      sc.setJobGroup(id, name, interruptOnCancel = false)
      val start = Clock.nowMs
      try body
      finally {
        done += Span(run, id, parent, name, phase, start, Clock.nowMs)
        stack.pop()
        if (stack.isEmpty) sc.clearJobGroup()
        else sc.setJobGroup(stack.head, "", interruptOnCancel = false)
      }
    }

  def spans: Seq[Span] = done.toSeq
}

/** Spark counters of one job group (one span). */
class GroupStats {
  var jobs = 0L
  var tasks = 0L
  var failedTasks = 0L
  var taskMs = 0L
  var shuffleBytes = 0L
  var largeTaskWarnings = 0L
  val jobIntervals = mutable.ArrayBuffer.empty[(Double, Double)]
}

/** Gathers job, task and shuffle counters per job group from the listener
  * bus, plus the stages that Spark warned about for oversized tasks.
  */
class SparkCounters extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobStart = new ConcurrentHashMap[Int, (String, Long)]()
  private val groups = mutable.Map.empty[String, GroupStats]
  private val warnedStages = mutable.ArrayBuffer.empty[Int]

  private def group(g: String): GroupStats = synchronized {
    groups.getOrElseUpdate(g, new GroupStats)
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    e.stageInfos.foreach(s => stageGroup.put(s.stageId, g))
    jobStart.put(e.jobId, (g, e.time))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val (g, start) = Option(jobStart.remove(e.jobId)).getOrElse(("", e.time))
    val s = group(g)
    s.synchronized { s.jobs += 1; s.jobIntervals += ((start.toDouble, e.time.toDouble)) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val s = group(stageGroup.getOrDefault(e.stageId, ""))
    s.synchronized {
      s.tasks += 1
      if (e.taskInfo != null && e.taskInfo.failed) s.failedTasks += 1
      val m = e.taskMetrics
      if (m != null) {
        s.taskMs += m.executorRunTime
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  def warnedStage(stageId: Int): Unit = synchronized { warnedStages += stageId }

  /** Snapshot of all groups with warnings attributed through their stage;
    * call after the listener bus has drained.
    */
  def snapshot(): Map[String, GroupStats] = synchronized {
    warnedStages.foreach(st => group(stageGroup.getOrDefault(st, "")).largeTaskWarnings += 1)
    groups.toMap
  }
}

/** Counts Spark's "task of very large size" warnings by stage. */
class LargeTaskAppender(counters: SparkCounters)
    extends AbstractAppender("perfbench-large-task", null, null, true, Property.EMPTY_ARRAY) {
  private val stageRe = """Stage (\d+)""".r

  override def append(e: LogEvent): Unit = {
    val msg = e.getMessage.getFormattedMessage
    if (msg.contains("task of very large size")) {
      stageRe.findFirstMatchIn(msg).foreach(m => counters.warnedStage(m.group(1).toInt))
    }
  }
}

object LargeTaskAppender {
  /** Attach to the root logger at WARN; Spark logs the warning from its
    * task scheduler.
    */
  def attach(counters: SparkCounters): LargeTaskAppender = {
    val app = new LargeTaskAppender(counters)
    app.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    ctx.getConfiguration.getRootLogger.addAppender(app, Level.WARN, null)
    ctx.updateLoggers()
    app
  }
}
