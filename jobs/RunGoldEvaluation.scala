package jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{Experiment, Metrics}
import repro.world.Schemas

/** spark-submit entrypoint: full gold-standard evaluation (paper Tables
  * 9/10) for one class. Usage:
  *   spark-submit --class jobs.RunGoldEvaluation repro.jar [className] [scale]
  * where scale is "test" (default) or "bench".
  */
object RunGoldEvaluation {
  def main(args: Array[String]): Unit = {
    val cls = args.headOption.getOrElse(Schemas.GFPlayer)
    val scale = args.lift(1).getOrElse("test")
    val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"gold-eval-$cls").getOrCreate()
    val (w, c) = Experiment.scaleConfigs(scale)
    val ctx = Experiment.build(spark, w, c)
    val all = ctx.goldClustersOf(cls).map(_.entityId).toSet
    val folds = ctx.folds
    (0 until 3).foreach { fold =>
      val learn = all -- folds(fold).toSet
      val models = Experiment.learnFold(ctx, cls, learn)
      val run = Experiment.fullRun(ctx, cls, models)
      val test = folds(fold).toSet.intersect(all)
      val prf = Metrics.newInstancesFound(run.entities, run.detections,
        ctx.rowGoldAll, ctx.gold, test)
      val facts = Metrics.factsFound(run.entities, run.detections,
        ctx.rowGoldAll, ctx.gold, test, ctx.schema)
      println(f"[fold $fold] new-instances P=${prf.precision}%.3f R=${prf.recall}%.3f " +
              f"F1=${prf.f1}%.3f | facts F1=${facts.f1}%.3f")
    }
    spark.stop()
  }
}
