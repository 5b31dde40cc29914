package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.PerfBenchBus
import org.apache.spark.sql.SparkSession
import repro.eval.Experiment
import repro.world.{CorpusConfig, SynthCorpus, SynthWorld, WorldConfig}

/** One repetition of one workload in a fresh JVM: start Spark, set up the
  * inputs three times (the last set-up feeds the run), run the workload
  * untraced or traced, and write the timings, quality metrics, spans, Spark
  * counters and outputs to the JSON file `--out`. `run.py` starts it, checks
  * the outputs and prints the metrics.
  *
  * {{{
  * PerfBench --workload gfplayer-bench --seed 7 --trace 0 --out FILE --local-dir DIR
  * }}}
  *
  * The inputs are the test-scale world and corpus: world seed = `--seed`,
  * corpus seed = `--seed` + 6, so seed 7 gives the tests' seeds 7 / 13.
  */
object PerfBench {

  case class Args(workload: Workload, seed: Long, trace: Boolean, out: Path, localDir: String)

  /** Set-ups per repetition; `setup_s` takes their median. */
  val Setups = 3

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val w = Workload.byName(need("workload")).getOrElse(sys.error(s"unknown workload ${need("workload")}"))
    Args(w, need("seed").toLong, need("trace") == "1", Paths.get(need("out")), need("local-dir"))
  }

  def session(localDir: String): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()
  }

  def environment(spark: SparkSession): Map[String, String] = {
    val conf = spark.conf
    Seq("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.adaptive.enabled", "spark.ui.enabled", "spark.master")
      .map(k => k -> conf.get(k)).toMap ++ Map(
      "spark.version" -> spark.version,
      "default_parallelism" -> spark.sparkContext.defaultParallelism.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory() / (1 << 20)).toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}")
  }

  /** Drop every cached and locally checkpointed block of the previous
    * repetition, so each one starts from the same empty block store.
    */
  def release(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    System.gc()
  }

  def heapUsedMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val t0 = Clock.nowMs
    val spark = session(a.localDir)
    val sessionS = (Clock.nowMs - t0) / 1e3
    try {
      val counters = new SparkCounters
      if (a.trace) {
        spark.sparkContext.addSparkListener(counters)
        LargeTaskAppender.attach(counters)
      }
      write(a.out, repetition(spark, a, counters, sessionS))
    } finally spark.stop()
  }

  /** Generated inputs, KB and the cached input DataFrames, forced. */
  def setup(spark: SparkSession, a: Args, t: Tracer): (Experiment.Ctx, Seq[Double]) = {
    val (wcfg, ccfg) = (WorldConfig.test(a.seed), CorpusConfig.test(a.seed + 6))
    val s0 = Clock.nowMs
    val (world, corpus) = t.span("world.generate_s") {
      val w = SynthWorld.generate(wcfg)
      (w, SynthCorpus.generate(w, ccfg))
    }
    val s1 = Clock.nowMs
    val ctx = t.span("kb.build_s") {
      val c = new Experiment.Ctx(spark, world, corpus)
      c.kb.instances.count(); c.kb.facts.count(); c.kb.labelsDF.count()
      c
    }
    val s2 = Clock.nowMs
    t.span("world.inputs_s") { ctx.pipe.cells.count(); ctx.pipe.columns.count() }
    val s3 = Clock.nowMs
    (ctx, Seq(s1 - s0, s2 - s1, s3 - s2).map(_ / 1e3))
  }

  def repetition(spark: SparkSession, a: Args, counters: SparkCounters, sessionS: Double): String = {
    val t = new Tracer(spark.sparkContext, a.trace, s"${a.workload.name}-${a.seed}-${System.currentTimeMillis()}")
    t.phase = "setup"
    // only the last set-up, whose context feeds the run, is traced
    val setups = (1 to Setups).map { i =>
      if (i > 1) release(spark)
      setup(spark, a, if (i == Setups) t else new Tracer(spark.sparkContext, false))
    }
    val ctx = setups.last._1

    // the measured run: materialized inputs to collected outputs
    t.phase = "run"
    val r0 = Clock.nowMs
    val out = if (a.trace) a.workload.traced(ctx, t) else a.workload.run(ctx)
    val r1 = Clock.nowMs

    val heapMb = heapUsedMb()
    val groups = if (a.trace) { PerfBenchBus.drain(spark.sparkContext); counters.snapshot() } else Map.empty
    val quality = Measures.quality(ctx, a.workload, out)
    val counts = if (a.trace) Measures.counts(ctx, a.workload, out) else Map.empty[String, Double]

    import Json._
    def nums(m: Map[String, Double]) = obj(m.toSeq.sorted.map { case (k, v) => k -> num(v) })
    obj(Seq(
      "env" -> obj(environment(spark).toSeq.sorted.map { case (k, v) => k -> str(v) }),
      "traced" -> (if (a.trace) "true" else "false"),
      "session_s" -> num(sessionS),
      "setups" -> arr(setups.map { case (_, Seq(g, k, i)) =>
        nums(Map("generate_s" -> g, "kb_s" -> k, "inputs_s" -> i)) }),
      "run_s" -> num((r1 - r0) / 1e3),
      "heap_mb" -> num(heapMb),
      "quality" -> nums(quality),
      "counts" -> nums(counts),
      "spans" -> arr(t.spans.map(s => obj(Seq(
        "run" -> str(s.run), "id" -> str(s.id), "parent" -> str(s.parent), "name" -> str(s.name),
        "phase" -> str(s.phase), "start" -> num(s.start), "end" -> num(s.end))))),
      "groups" -> obj(groups.toSeq.sortBy(_._1).map { case (g, s) => g -> obj(Seq(
        "jobs" -> num(s.jobs), "tasks" -> num(s.tasks), "failed_tasks" -> num(s.failedTasks),
        "task_ms" -> num(s.taskMs), "shuffle_bytes" -> num(s.shuffleBytes),
        "large_task_warnings" -> num(s.largeTaskWarnings),
        "job_intervals" -> arr(s.jobIntervals.map { case (b, e) => arr(Seq(num(b), num(e))) })))
      }),
      "outputs" -> Measures.outputsJson(ctx, out)))
  }

  private def write(p: Path, s: String): Unit = {
    val tmp = p.resolveSibling(p.getFileName.toString + ".tmp")
    Files.write(tmp, s.getBytes(StandardCharsets.UTF_8))
    Files.move(tmp, p, java.nio.file.StandardCopyOption.ATOMIC_MOVE)
  }
}
