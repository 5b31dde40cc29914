package repro.matching

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.core.{DataType, TextSim, TypeSim, Values}
import repro.kb.KnowledgeBase
import repro.learn.Genetic

/** Compact row/column keys used across pipeline stages. */
object Keys {
  def rowKey(tableId: Long, rowId: Int): Long = tableId * 100000L + rowId
  def colKey(tableId: Long, colId: Int): Long = tableId * 1000L + colId
}

/** Outputs of a previous pipeline iteration used to refine the schema
  * mapping (paper: KB-Duplicate needs entity-to-instance correspondences,
  * WT-Label/WT-Duplicate need the preliminary mapping and row clusters).
  */
case class PriorOutputs(prelimAttr: Map[Long, String],
                        rowCluster: Map[Long, Long],
                        rowInstance: Map[Long, String])

/** Attribute-to-property matching (paper Section 3.1): candidate properties
  * are blocked by data type, five matchers score each (column, property)
  * pair, scores are aggregated by a per-class GA-learned weighted average,
  * and a column is matched to the argmax property if the aggregate clears a
  * per-property learned threshold.
  */
object AttributeMatcher {

  val matcherNames: Seq[String] = Seq("kbOverlap", "kbLabel", "kbDuplicate", "wtLabel", "wtDuplicate")

  /** Type blocking: detected type -> admissible property data types. */
  def candidateTypes(detected: String): Seq[String] = detected match {
    case "text" => Seq(DataType.Text.name, DataType.InstanceRef.name, DataType.NominalString.name)
    case "quantity" => Seq(DataType.Quantity.name, DataType.NominalInt.name)
    case "date" => Seq(DataType.Date.name, DataType.Quantity.name, DataType.NominalInt.name)
    case _ => Seq.empty
  }

  /** Per-(class, property) value profile used by KB-Overlap. */
  case class PropProfile(dt: String, values: Set[String], lo: Double, hi: Double)

  def buildPropProfiles(kb: KnowledgeBase): Map[(String, String), PropProfile] = {
    val factsByProp = kb.factsSeq.groupBy(f => f.property)
    kb.schema.map { spec =>
      val vals = factsByProp.getOrElse(spec.property, Nil)
        .filter(f => kb.instanceByUri.get(f.uri).exists(_.cls == spec.cls))
        .map(_.value)
      val dt = spec.dataType
      val profile = dt match {
        case DataType.Quantity =>
          val nums = vals.flatMap(Values.parseQuantity).sorted
          if (nums.isEmpty) PropProfile(dt.name, Set.empty, 0, 0)
          else PropProfile(dt.name, Set.empty,
            nums(math.max(0, (nums.size * 0.02).toInt)),
            nums(math.min(nums.size - 1, (nums.size * 0.98).toInt)))
        case DataType.Date =>
          val years = vals.flatMap(v => Values.parseDate(v).map(_._1.toDouble))
          if (years.isEmpty) PropProfile(dt.name, Set.empty, 0, 0)
          else PropProfile(dt.name, Set.empty, years.min, years.max)
        case _ =>
          PropProfile(dt.name, vals.map(Values.normalize).toSet, 0, 0)
      }
      (spec.cls, spec.property) -> profile
    }.toMap
  }

  /** One cell's fit under KB-Overlap. */
  def overlapFit(profile: PropProfile, raw: String): Double = profile.dt match {
    case "quantity" =>
      Values.parseQuantity(raw) match {
        case Some(v) => if (v >= profile.lo && v <= profile.hi) 1.0 else 0.0
        case None    => 0.0
      }
    case "date" =>
      Values.parseDate(raw) match {
        case Some((y, _, _)) => if (y >= profile.lo && y <= profile.hi) 1.0 else 0.0
        case None            => 0.0
      }
    case "nominalInt" =>
      if (profile.values.contains(Values.normalize(raw))) 1.0 else 0.0
    case _ =>
      if (profile.values.contains(Values.normalize(raw))) 1.0 else 0.0
  }

  /** Compute the five matcher scores for every candidate (column, property).
    *
    * Returns columns: tableId, colId, cls, property,
    * kbOverlap, kbLabel, kbDuplicate, wtLabel, wtDuplicate.
    */
  def features(spark: SparkSession, cells: DataFrame, columns: DataFrame,
               detectedTypes: DataFrame, labelCols: DataFrame, tableClass: DataFrame,
               kb: KnowledgeBase, propertyLabels: Map[String, Seq[String]],
               prior: Option[PriorOutputs]): DataFrame = {
    import spark.implicits._

    val schemaDF = kb.schema.toDF() // cls, property, dataTypeName
    val colBase = columns
      .join(tableClass.select($"tableId", $"cls"), "tableId")
      .join(detectedTypes, Seq("tableId", "colId"))
      .join(labelCols, "tableId")
      .filter($"colId" =!= $"labelColId")
      .select($"tableId", $"colId", $"header", $"cls", $"detectedType")

    val compatible = udf((detected: String, dtName: String) =>
      candidateTypes(detected).contains(dtName))
    val cands = colBase.join(schemaDF, Seq("cls"))
      .filter(compatible($"detectedType", $"dataTypeName"))
      .select($"tableId", $"colId", $"header", $"cls", $"property", $"dataTypeName")

    // ---- KB-Label: header vs KB property labels --------------------------
    val propLabelsB = spark.sparkContext.broadcast(propertyLabels)
    val kbLabelUdf = udf((header: String, property: String) => {
      val ls = propLabelsB.value.getOrElse(property, Seq(property))
      ls.map(l => TextSim.mongeElkan(Values.normalize(header), l)).max
    })

    // ---- KB-Overlap: cell fits the property's KB value profile -----------
    val profilesB = spark.sparkContext.broadcast(buildPropProfiles(kb))
    val overlapUdf = udf((cls: String, property: String, raw: String) =>
      profilesB.value.get((cls, property)).map(p => overlapFit(p, raw)).getOrElse(0.0))

    // ---- KB-Duplicate: cell equals the KB fact of the row's instance -----
    val factIndexB = kb.factIndexB
    val rowInstanceB = spark.sparkContext.broadcast(prior.map(_.rowInstance).getOrElse(Map.empty[Long, String]))
    val kbDupUdf = udf((tableId: Long, rowId: Int, property: String, dtName: String, raw: String) => {
      val res = for {
        uri  <- rowInstanceB.value.get(Keys.rowKey(tableId, rowId))
        fact <- factIndexB.value.get(uri).flatMap(_.get(property))
      } yield if (TypeSim.equal(DataType.fromName(dtName), raw, fact)) 1.0 else 0.0
      res.map(Double.box).orNull: java.lang.Double
    })

    // ---- WT-Label: header->property statistics from the preliminary map --
    val wtLabelMap: Map[String, Map[String, Double]] = prior match {
      case None => Map.empty
      case Some(p) =>
        val headerByCol = columns.select($"tableId", $"colId", $"header").collect()
          .map(r => Keys.colKey(r.getLong(0), r.getInt(1)) -> Values.normalize(r.getString(2))).toMap
        val pairs = p.prelimAttr.toSeq.flatMap { case (ck, prop) =>
          headerByCol.get(ck).map(h => (h, prop))
        }
        pairs.groupBy(_._1).map { case (h, ps) =>
          val total = ps.size.toDouble
          h -> ps.groupBy(_._2).map { case (prop, xs) => prop -> xs.size / total }
        }
    }
    val wtLabelB = spark.sparkContext.broadcast(wtLabelMap)
    val wtLabelUdf = udf((header: String, property: String) =>
      wtLabelB.value.get(Values.normalize(header)).flatMap(_.get(property)).getOrElse(0.0))

    // ---- WT-Duplicate: equal value for the same (cluster, property) in a
    // different table, via the preliminary mapping ---------------------------
    val wtDupMap: Map[(Long, String), Seq[(Long, String)]] = prior match {
      case None => Map.empty
      case Some(p) =>
        cells.collect().iterator.flatMap { r =>
          val (t, row, c, raw) = (r.getLong(0), r.getInt(1), r.getInt(2), r.getString(3))
          for {
            prop    <- p.prelimAttr.get(Keys.colKey(t, c))
            cluster <- p.rowCluster.get(Keys.rowKey(t, row))
          } yield ((cluster, prop), (t, raw))
        }.toSeq.groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2) }
    }
    val wtDupB = spark.sparkContext.broadcast(wtDupMap)
    val rowClusterB = spark.sparkContext.broadcast(prior.map(_.rowCluster).getOrElse(Map.empty[Long, Long]))
    val wtDupUdf = udf((tableId: Long, rowId: Int, property: String, dtName: String, raw: String) => {
      val res = rowClusterB.value.get(Keys.rowKey(tableId, rowId)).flatMap { cluster =>
        val others = wtDupB.value.getOrElse((cluster, property), Nil).filter(_._1 != tableId)
        if (others.isEmpty) None
        else Some(if (others.exists { case (_, v) =>
          TypeSim.equal(DataType.fromName(dtName), raw, v) }) 1.0 else 0.0)
      }
      res.map(Double.box).orNull: java.lang.Double
    })

    // ---- per-cell scores, averaged per (column, property) ----------------
    val cellCands = cells.join(cands, Seq("tableId", "colId"))
    cellCands
      .withColumn("ovl", overlapUdf($"cls", $"property", $"raw"))
      .withColumn("dup", kbDupUdf($"tableId", $"rowId", $"property", $"dataTypeName", $"raw"))
      .withColumn("wtd", wtDupUdf($"tableId", $"rowId", $"property", $"dataTypeName", $"raw"))
      .groupBy($"tableId", $"colId", $"header", $"cls", $"property")
      .agg(avg($"ovl") as "kbOverlap",
           coalesce(avg($"dup"), lit(0.0)) as "kbDuplicate",
           coalesce(avg($"wtd"), lit(0.0)) as "wtDuplicate")
      .withColumn("kbLabel", kbLabelUdf($"header", $"property"))
      .withColumn("wtLabel", wtLabelUdf($"header", $"property"))
      .select($"tableId", $"colId", $"cls", $"property",
              $"kbOverlap", $"kbLabel", $"kbDuplicate", $"wtLabel", $"wtDuplicate")
  }

  /** Learned parameters: per-class matcher weights + per-property thresholds. */
  case class AttrModel(weights: Map[String, Array[Double]],
                       thresholds: Map[String, Double],
                       defaultThreshold: Double = 0.30) extends Serializable

  /** Aggregate matcher scores and apply the matching rule: the argmax
    * property wins if its aggregated score clears the property threshold.
    * Returns (tableId, colId, cls, property, score).
    */
  def matchAttributes(spark: SparkSession, feats: DataFrame, model: AttrModel): DataFrame = {
    import spark.implicits._
    val weightsB = spark.sparkContext.broadcast(model.weights)
    val aggUdf = udf((cls: String, o: Double, l: Double, d: Double, wl: Double, wd: Double) => {
      val w = weightsB.value.getOrElse(cls, Array.fill(5)(0.2))
      Genetic.waScore(w, Array(o, l, d, wl, wd))
    })
    val thrB = spark.sparkContext.broadcast(model.thresholds)
    val dft = model.defaultThreshold
    val thrUdf = udf((p: String) => thrB.value.getOrElse(p, dft))
    feats
      .withColumn("score", aggUdf($"cls", $"kbOverlap", $"kbLabel", $"kbDuplicate", $"wtLabel", $"wtDuplicate"))
      .withColumn("rank", row_number().over(
        Window.partitionBy($"tableId", $"colId").orderBy($"score".desc, $"property")))
      .filter($"rank" === 1 && $"score" >= thrUdf($"property"))
      .select($"tableId", $"colId", $"cls", $"property", $"score")
  }

  /** Learn weights (GA, per class) and thresholds (per property) from gold
    * attribute annotations. `goldAttrs`: (tableId, colId) -> property.
    */
  def learn(spark: SparkSession, feats: DataFrame,
            goldAttrs: Map[(Long, Int), String],
            learnTables: Set[Long]): AttrModel = {
    val rows = feats.collect().filter(r => learnTables.contains(r.getLong(0)))
    val byCls = rows.groupBy(_.getString(2))
    val weights = byCls.map { case (cls, rs) =>
      val features = rs.map(r => Array(r.getDouble(4), r.getDouble(5), r.getDouble(6), r.getDouble(7), r.getDouble(8)))
      val labels = rs.map(r => goldAttrs.get((r.getLong(0), r.getInt(1))).contains(r.getString(3)))
      cls -> Genetic.learn(features, labels, seed = cls.hashCode).weights
    }
    // thresholds: per property, over columns where that property is argmax
    val scored = rows.map { r =>
      val cls = r.getString(2)
      val w = weights.getOrElse(cls, Array.fill(5)(0.2))
      val s = Genetic.waScore(w, Array(r.getDouble(4), r.getDouble(5), r.getDouble(6), r.getDouble(7), r.getDouble(8)))
      ((r.getLong(0), r.getInt(1)), r.getString(3), s)
    }
    val argmax = scored.groupBy(_._1).map { case (_, xs) => xs.maxBy(x => (x._3, x._2)) }
    val thresholds = argmax.groupBy(_._2).flatMap { case (prop, xs) =>
      val scores = xs.map(_._3).toArray
      val labels = xs.map(x => goldAttrs.get(x._1).contains(prop)).toArray
      if (labels.exists(identity) && labels.exists(!_)) {
        Some(prop -> Genetic.bestThreshold(scores, labels)._1)
      } else None
    }
    AttrModel(weights, thresholds)
  }

  /** P/R/F1 of predicted correspondences vs gold (paper Table 6 metric). */
  def evaluate(predicted: Seq[((Long, Int), String)], gold: Map[(Long, Int), String],
               tables: Set[Long]): (Double, Double, Double) = {
    val pred = predicted.filter(p => tables.contains(p._1._1)).toMap
    val gld  = gold.filter(g => tables.contains(g._1._1))
    val tp = pred.count { case (k, p) => gld.get(k).contains(p) }
    val precision = if (pred.isEmpty) 0.0 else tp.toDouble / pred.size
    val recall    = if (gld.isEmpty) 0.0 else tp.toDouble / gld.size
    val f1 = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
    (precision, recall, f1)
  }
}
