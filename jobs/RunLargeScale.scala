package jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{Experiment, Metrics}
import repro.world.Schemas

/** spark-submit entrypoint: large-scale profiling run (paper Tables 11/12)
  * over the whole synthetic corpus. Usage:
  *   spark-submit --class jobs.RunLargeScale repro.jar [className] [scale]
  */
object RunLargeScale {
  def main(args: Array[String]): Unit = {
    val cls = args.headOption.getOrElse(Schemas.GFPlayer)
    val scale = args.lift(1).getOrElse("bench")
    val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"large-scale-$cls").getOrCreate()
    val (w, c) = Experiment.scaleConfigs(scale)
    val ctx = Experiment.build(spark, w, c)
    val all = ctx.goldClustersOf(cls).map(_.entityId).toSet
    val models = Experiment.learnFold(ctx, cls, all)
    val run = Experiment.fullRun(ctx, cls, models)

    val ls = Experiment.largeScale(ctx, run)
    println(s"[Table 11] $cls rows=${ls.totalRows} existing=${ls.existingEntities} " +
            s"matchedKB=${ls.matchedInstances} ratio=${ls.matchingRatio} " +
            s"new=${ls.newEntities} newFacts=${ls.newFacts} " +
            f"entAcc=${ls.newEntityAccuracy}%.2f factAcc=${ls.newFactAccuracy}%.2f")
    Metrics.newEntityDensities(run.entities, run.detections).toSeq
      .sortBy(-_._2._2).foreach { case (p, (n, d)) =>
        println(f"[Table 12] $cls $p facts=$n density=${d * 100}%.2f%%")
      }
    spark.stop()
  }
}
