package repro.clustering

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{TextSim, Values}
import repro.kb.KnowledgeBase
import repro.matching.Keys

/** Everything row-level the similarity metrics need, assembled once per
  * class: label, bag-of-words, the table's PHI label-correlation vector,
  * values mapped to KB properties, and the table's implicit attributes
  * (encoded "property|value" -> score).
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

  /** The mapping-independent profiles of all rows of the given class, from
    * one pass per table over its cells and row candidates, with PHI mapped
    * on from the class's `(tableId, normLabel)` pairs; localCheckpointed.
    *
    * @param rowCands  candidates from TableClassMatcher (tableId,rowId,uri,cls,labelSim)
    */
  def base(spark: SparkSession, cls: String, cells: DataFrame, labelCols: DataFrame,
           classTables: DataFrame, rowCands: DataFrame, kb: KnowledgeBase): Dataset[RowBase] = {
    import spark.implicits._
    val sc = spark.sparkContext
    val tables = classTables.select($"tableId").as[Long].collect().toSet
    val labelColB = sc.broadcast(labelCols.select($"tableId", $"labelColId").as[(Long, Int)]
      .filter(t => tables(t._1)).collect().toMap)
    val factIndexB = kb.factIndexB
    val tableCells = cells.select($"tableId", $"rowId", $"colId", $"raw")
      .as[(Long, Int, Int, String)].filter(c => tables(c._1)).groupByKey(_._1)
    val tableCands = rowCands.select($"tableId", $"rowId", $"uri")
      .as[(Long, Int, String)].filter(c => tables(c._1)).groupByKey(_._1)
    val rows = tableCells.cogroup(tableCands) { (tableId, cs, cands) =>
      val byRow = cs.toSeq.groupMap(_._2)(c => (c._3, c._4))
      // (rowId, combo) pairs, each once; mapped from a Seq, as a Map would
      // keep one combo per row
      val combos = cands.toSeq.flatMap { case (_, rowId, uri) =>
        factIndexB.value.getOrElse(uri, Map.empty[String, String]).toSeq
          .map { case (p, v) => (rowId, p + Sep + Values.normalize(v)) }
      }.distinct
      val implicitAtts = combos.groupMapReduce(_._2)(_ => 1)(_ + _).toSeq.sorted
        .map { case (combo, n) => combo -> n.toDouble / byRow.size }
        .filter(_._2 >= implicitThreshold).toMap
      val labelCol = labelColB.value.getOrElse(tableId, 0)
      byRow.toSeq.sortBy(_._1).iterator.map { case (rowId, unsorted) =>
        val rowCells = unsorted.sortBy(_._1)
        val label = rowCells.find(_._1 == labelCol).map(_._2).getOrElse("")
        RowBase(Keys.rowKey(tableId, rowId), tableId, cls, label, Values.normalize(label),
                rowCells.flatMap(c => TextSim.tokenize(c._2)).distinct.sorted,
                Map.empty, implicitAtts, rowCells)
      }
    }.localCheckpoint()
    val phiB = sc.broadcast(
      tablePhi(rows.select($"tableId", $"normLabel").as[(Long, String)].collect().toSeq))
    rows.map(r => r.copy(phi = phiB.value.getOrElse(r.tableId, Map.empty))).localCheckpoint()
  }

  /** PHI label-correlation vectors per table from the `(tableId,
    * normLabel)` pairs of a class. For labels a != b sharing a table,
    * phi(a, b) = (n nab - na nb) / sqrt(na nb (n - na) (n - nb)), where `n`
    * counts the distinct labels and `na`, `nb`, `nab` the tables holding a,
    * b, both. A table's vector is the sum of its labels' vectors over its
    * label count, keeping the `phiCap` entries of largest magnitude, ties to
    * the smaller id. A label's id is its rank in sorted label order.
    */
  def tablePhi(tableLabels: Seq[(Long, String)]): Map[Long, Map[Long, Double]] = {
    val labelId = tableLabels.map(_._2).distinct.sorted.zipWithIndex.toMap
    val n = labelId.size.toDouble
    val byTable = tableLabels.distinct.groupMap(_._1)(tl => labelId(tl._2).toLong)
      .map { case (t, ids) => t -> ids.sorted }
    val na = byTable.values.flatten.groupMapReduce(identity)(_ => 1L)(_ + _)
    val nab = byTable.values.toSeq.flatMap(ids => for (a <- ids; b <- ids if a != b) yield (a, b))
      .groupMapReduce(identity)(_ => 1L)(_ + _)
    val vecs = nab.toSeq.groupMap(_._1._1) { case ((a, b), nAB) =>
      val denom = math.sqrt(na(a).toDouble * na(b) * (n - na(a)) * (n - na(b)))
      b -> (if (denom == 0.0) 0.0 else (n * nAB - na(a).toDouble * na(b)) / denom)
    }
    byTable.map { case (t, ids) =>
      // summed in label-id order
      val sum = ids.flatMap(vecs.getOrElse(_, Nil)).groupMapReduce(_._1)(_._2)(_ + _)
      t -> sum.toSeq.map { case (k, v) => k -> v / ids.size }
        .sortBy { case (k, v) => (-math.abs(v), k) }.take(phiCap).toMap
    }
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
