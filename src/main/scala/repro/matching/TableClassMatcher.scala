package repro.matching

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{DataType, TextSim, TypeSim, Values}
import repro.kb.{KnowledgeBase, LabelIndex}

/** Table-to-class matching (paper Section 3.1, after Ritze et al.):
  * (1) row labels are matched against a KB label index to collect candidate
  * instances per row — a class scores the number of rows with a candidate;
  * (2) duplicate-based attribute-to-property matching compares row values
  * against the candidate instances' facts — each column adds the count of
  * its best-matching property. The class with the highest aggregate wins.
  *
  * The Lucene label index of the paper is substituted by a token inverted
  * index over the KB labels (`LabelIndex`, `KnowledgeBase.labelIndexB`). It
  * is broadcast together with the KB fact index, and each table is matched
  * in one pass over its cells.
  */
object TableClassMatcher {

  /** How many candidate instances to keep per row (Lucene top-k stand-in). */
  val topKPerRow = 8
  /** Minimum Monge-Elkan label similarity for a candidate. */
  val minLabelSim = 0.72

  /** Row labels: (tableId, rowId, rowLabel, normLabel). */
  def rowLabels(cells: DataFrame, labelCols: DataFrame): DataFrame = {
    val norm = udf((s: String) => Values.normalize(s))
    cells.join(labelCols.withColumnRenamed("labelColId", "colId"), Seq("tableId", "colId"))
      .select(col("tableId"), col("rowId"), col("raw") as "rowLabel",
              norm(col("raw")) as "normLabel")
  }

  /** KB label tokens with a higher document frequency are stop tokens for
    * candidate generation (the Lucene index of the paper similarly down-
    * weights ubiquitous terms).
    */
  val maxKbTokenDf = 400

  /** One candidate instance of one row. */
  case class RowCand(rowId: Int, uri: String, cls: String, labelSim: Double)
  /** A matched table: its class, the class's score and the row candidates. */
  case class TableMatch(tableId: Long, cls: String, score: Long, cands: Seq[RowCand])

  /** Assign a class to every table with a label column and at least one row
    * candidate. Returns (tableClass: tableId, cls, score; row candidates:
    * tableId, rowId, uri, cls, labelSim), both read from one per-table pass
    * that is localCheckpointed.
    */
  def matchClasses(spark: SparkSession, cells: DataFrame, labelCols: DataFrame,
                   kb: KnowledgeBase): (DataFrame, DataFrame) = {
    import spark.implicits._
    val labelIndexB = kb.labelIndexB
    val factIndexB = kb.factIndexB
    val schema = kb.schemaByClass
    val tableCells = cells.select($"tableId", $"rowId", $"colId", $"raw")
      .as[(Long, Int, Int, String)].groupByKey(_._1)
    val tableLabelCol = labelCols.select($"tableId", $"labelColId")
      .as[(Long, Int)].groupByKey(_._1)
    val matched = tableCells.cogroup(tableLabelCol) { (tableId, cs, lc) =>
      lc.nextOption().iterator.flatMap { case (_, labelCol) =>
        matchTable(tableId, labelCol, cs.map(c => (c._2, c._3, c._4)).toSeq,
                   labelIndexB.value, factIndexB.value, schema)
      }
    }.localCheckpoint()

    val tableClass = matched.select($"tableId", $"cls", $"score")
    val cands = matched.select($"tableId", explode($"cands") as "c")
      .select($"tableId", $"c.rowId", $"c.uri", $"c.cls", $"c.labelSim")
    (tableClass, cands)
  }

  /** Match one table given its label column and its cells (rowId, colId,
    * raw). None when no row has a candidate.
    */
  private def matchTable(tableId: Long, labelCol: Int, cells: Seq[(Int, Int, String)],
                         index: LabelIndex, facts: Map[String, Map[String, String]],
                         schema: Map[String, Map[String, DataType]]): Option[TableMatch] = {
    // (uri, cls) -> best label similarity, once per distinct normalized label
    val simsByLabel = mutable.HashMap.empty[String, Seq[((String, String), Double)]]
    def instanceSims(normLabel: String) = simsByLabel.getOrElseUpdate(normLabel, {
      val best = mutable.HashMap.empty[(String, String), Double]
      index.candidates(TextSim.tokenize(normLabel)).foreach { kbLabel =>
        val sim = TextSim.mongeElkan(normLabel, kbLabel)
        if (sim >= minLabelSim) index.instances(kbLabel).foreach { inst =>
          if (best.get(inst).forall(_ < sim)) best(inst) = sim
        }
      }
      best.toSeq
    })

    val (labelCells, valueCells) = cells.partition(_._2 == labelCol)
    val cands = labelCells.flatMap { case (rowId, _, raw) =>
      instanceSims(Values.normalize(raw))
        .sortWith { case ((a, sa), (b, sb)) => sa > sb || (sa == sb && a._1 < b._1) }
        .take(topKPerRow)
        .map { case ((uri, cls), sim) => RowCand(rowId, uri, cls, sim) }
    }
    if (cands.isEmpty) return None

    // (1) row score: rows with a candidate of the class
    val rowScore = cands.map(c => (c.cls, c.rowId)).distinct.groupMapReduce(_._1)(_ => 1L)(_ + _)

    // (2) duplicate-based column score: cell == candidate-instance fact
    val rowValues = valueCells.groupMap(_._1)(c => (c._2, c._3))
    val matches = mutable.HashMap.empty[(String, Int, String), Long]
    for {
      c              <- cands
      props          <- schema.get(c.cls).toSeq
      (colId, raw)   <- rowValues.getOrElse(c.rowId, Nil)
      (prop, value)  <- facts.getOrElse(c.uri, Map.empty[String, String])
      dt             <- props.get(prop)
      if TypeSim.equal(dt, raw, value)
    } matches((c.cls, colId, prop)) = matches.getOrElse((c.cls, colId, prop), 0L) + 1L
    val attrScore = matches.toSeq
      .groupMapReduce { case ((cls, colId, _), _) => (cls, colId) }(_._2)(math.max)
      .toSeq.groupMapReduce(_._1._1)(_._2)(_ + _)

    val (cls, score) = rowScore.toSeq
      .map { case (c, n) => c -> (n + attrScore.getOrElse(c, 0L)) }
      .minBy { case (c, s) => (-s, c) }
    Some(TableMatch(tableId, cls, score, cands))
  }
}
