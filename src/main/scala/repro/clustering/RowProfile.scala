package repro.clustering

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{TextSim, Values}
import repro.kb.KnowledgeBase
import repro.matching.Keys

/** Everything row-level the similarity metrics need, assembled once with
  * DataFrame aggregations: label, bag-of-words, the table's PHI label-
  * correlation vector, values mapped to KB properties, and the table's
  * implicit attributes (encoded "property|value" -> score).
  */
case class RowProfile(rowKey: Long, tableId: Long, cls: String,
                      label: String, normLabel: String,
                      tokens: Seq[String],
                      phi: Map[Long, Double],
                      values: Map[String, String],
                      valueCols: Map[String, Long],
                      implicitAtts: Map[String, Double])

/** The part of a row profile that does not depend on the schema mapping,
  * plus the row's raw `(colId, raw)` cells from which each mapping derives
  * `values` / `valueCols`.
  */
case class RowBase(rowKey: Long, tableId: Long, cls: String,
                   label: String, normLabel: String,
                   tokens: Seq[String],
                   phi: Map[Long, Double],
                   implicitAtts: Map[String, Double],
                   cells: Seq[(Int, String)])

object RowProfiles {
  /** Separator inside implicit-attribute keys. */
  val Sep = "|"
  /** Keep a table-level implicit property-value combination only when at
    * least this fraction of rows supports it (paper: "a certain threshold").
    */
  val implicitThreshold = 0.5
  /** Cap per-table PHI vector size. */
  val phiCap = 40

  /** The mapping-independent profiles of all rows of the given class,
    * localCheckpointed (the cached table-label pairs of PHI are released
    * once the checkpoint holds them).
    *
    * @param rowCands  candidates from TableClassMatcher (tableId,rowId,uri,cls,labelSim)
    */
  def base(spark: SparkSession, cls: String, cells: DataFrame, labelCols: DataFrame,
           classTables: DataFrame, rowCands: DataFrame, kb: KnowledgeBase): Dataset[RowBase] = {
    import spark.implicits._

    val clsCells = cells.join(classTables.select($"tableId"), "tableId")

    // ---- core: label, tokens and raw cells per row -------------------------
    val labelColB = spark.sparkContext.broadcast(
      labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap)
    val core = clsCells
      .groupBy($"tableId", $"rowId")
      .agg(collect_list(struct($"colId", $"raw")) as "cs")
      .as[(Long, Int, Seq[(Int, String)])]
      .map { case (tableId, rowId, cs) =>
        val labelCol = labelColB.value.getOrElse(tableId, 0)
        val label = cs.find(_._1 == labelCol).map(_._2).getOrElse("")
        val tokens = cs.flatMap(c => TextSim.tokenize(c._2)).distinct.sorted
        (Keys.rowKey(tableId, rowId), tableId, label, Values.normalize(label), tokens, cs)
      }.toDF("rowKey", "tableId", "label", "normLabel", "tokens", "cells")

    // ---- PHI: label correlation vectors, averaged per table ---------------
    val labelIds = core.select($"normLabel").distinct()
      .withColumn("labelId", monotonically_increasing_id())
    val tl = core.join(labelIds, "normLabel")
      .select($"tableId", $"labelId").distinct().cache()
    val nLabels = labelIds.count().toDouble
    val na = tl.groupBy($"labelId").agg(count(lit(1)) as "na")
    val pairs = tl.as("x").join(tl.as("y"), col("x.tableId") === col("y.tableId"))
      .filter(col("x.labelId") =!= col("y.labelId"))
      .groupBy(col("x.labelId") as "l1", col("y.labelId") as "l2")
      .agg(count(lit(1)) as "nab")
    val phiOf = udf((nab: Long, na1: Long, na2: Long) => {
      val n = nLabels
      val denom = math.sqrt(na1.toDouble * na2 * (n - na1) * (n - na2))
      if (denom == 0.0) 0.0 else (n * nab - na1.toDouble * na2) / denom
    })
    val labelVecs = pairs
      .join(na.withColumnRenamed("labelId", "l1").withColumnRenamed("na", "na1"), "l1")
      .join(na.withColumnRenamed("labelId", "l2").withColumnRenamed("na", "na2"), "l2")
      .withColumn("phi", phiOf($"nab", $"na1", $"na2"))
      .groupBy($"l1").agg(map_from_entries(collect_list(struct($"l2", $"phi"))) as "vec")
    // collect_list drops null vectors (labels without co-occurrences); the
    // denominator stays the table's label count, as the paper averages the
    // vectors of all row labels.
    val avgVecs = udf((vecs: Seq[Map[Long, Double]], nLabels: Long) => {
      val acc = scala.collection.mutable.Map.empty[Long, Double]
      vecs.foreach(_.foreach { case (k, v) => acc(k) = acc.getOrElse(k, 0.0) + v })
      val m = math.max(1L, nLabels).toDouble
      acc.toSeq.map { case (k, v) => k -> v / m }
        .sortBy { case (k, v) => (-math.abs(v), k) }.take(phiCap).toMap
    })
    val tablePhi = tl.join(labelVecs, tl("labelId") === labelVecs("l1"), "left")
      .groupBy($"tableId")
      .agg(count(lit(1)) as "nLabels", collect_list($"vec") as "vecs")
      .select($"tableId", avgVecs($"vecs", $"nLabels") as "phi")

    // ---- implicit attributes per table ------------------------------------
    val factIndexB = kb.factIndexB
    val rowCombos = rowCands
      .join(classTables.select($"tableId"), "tableId")
      .select($"tableId", $"rowId", $"uri")
      .as[(Long, Int, String)]
      .flatMap { case (t, r, uri) =>
        factIndexB.value.getOrElse(uri, Map.empty[String, String]).map { case (p, v) =>
          (t, r, p + Sep + Values.normalize(v))
        }
      }.distinct().toDF("tableId", "rowId", "combo")
    val rowsPerTable = core.groupBy($"tableId").agg(count(lit(1)) as "nRows")
    val tableImplicit = rowCombos
      .groupBy($"tableId", $"combo").agg(countDistinct($"rowId") as "cnt")
      .join(rowsPerTable, "tableId")
      .withColumn("score", $"cnt" / $"nRows")
      .filter($"score" >= implicitThreshold)
      .groupBy($"tableId")
      .agg(map_from_entries(collect_list(struct($"combo", $"score"))) as "implicitAtts")

    val rowBase = core
      .join(tablePhi, Seq("tableId"), "left")
      .join(tableImplicit, Seq("tableId"), "left")
      .select($"rowKey", $"tableId", lit(cls) as "cls", $"label", $"normLabel",
              $"tokens",
              coalesce($"phi", typedLit(Map.empty[Long, Double])) as "phi",
              coalesce($"implicitAtts", typedLit(Map.empty[String, Double])) as "implicitAtts",
              $"cells")
      .as[RowBase]
      .localCheckpoint()
    tl.unpersist()
    rowBase
  }

  /** Profiles under one schema mapping: a narrow map over the base that
    * keeps the cells of mapped columns as `values` / `valueCols`.
    *
    * @param attrCorr  colKey -> matched property (this iteration's mapping)
    */
  def withValues(spark: SparkSession, base: Dataset[RowBase],
                 attrCorr: Map[Long, String]): Dataset[RowProfile] = {
    import spark.implicits._
    val attrCorrB = spark.sparkContext.broadcast(attrCorr)
    base.map { b =>
      val mapped = b.cells.flatMap { case (colId, raw) =>
        val ck = Keys.colKey(b.tableId, colId)
        attrCorrB.value.get(ck).map(prop => (prop, raw, ck))
      }
      RowProfile(b.rowKey, b.tableId, b.cls, b.label, b.normLabel, b.tokens, b.phi,
                 mapped.map(m => m._1 -> m._2).toMap, mapped.map(m => m._1 -> m._3).toMap,
                 b.implicitAtts)
    }
  }
}
