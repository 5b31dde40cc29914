package jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiment
import repro.world.Schemas

/** spark-submit entrypoint: data profiles (paper Tables 1-5) for the
  * synthetic KB, corpus and gold standard.
  * Usage: spark-submit --class jobs.ProfileData repro.jar [scale]
  */
object ProfileData {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.getOrElse("test")
    val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("profile-data").getOrCreate()
    val (w, c) = Experiment.scaleConfigs(scale)
    val ctx = Experiment.build(spark, w, c)

    println("[Table 1] instances and facts per class")
    ctx.kb.classProfile(Schemas.mainClasses).show(false)
    println("[Table 2] property densities")
    ctx.kb.densityProfile(Schemas.mainClasses).orderBy("cls", "property").show(50, false)

    import org.apache.spark.sql.functions._
    import spark.implicits._
    val cells = ctx.corpus.cellsDF(spark)
    val rowsPerTable = cells.select($"tableId", $"rowId").distinct()
      .groupBy($"tableId").agg(count(lit(1)) as "n")
    println("[Table 3] corpus characteristics (rows per table)")
    rowsPerTable.agg(avg($"n") as "avg", min($"n") as "min", max($"n") as "max").show()

    println("[Table 5] gold standard overview")
    Schemas.mainClasses.foreach { cls =>
      val cs = ctx.gold.clusters.filter(_.cls == cls)
      println(s"  $cls: clusters=${cs.size} new=${cs.count(_.isNew)} " +
              s"facts=${ctx.gold.facts.count(f => cs.exists(_.entityId == f.entityId))}")
    }
    spark.stop()
  }
}
