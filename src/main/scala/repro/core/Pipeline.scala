package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.clustering._
import repro.fusion._
import repro.kb.{KBInstanceLocal, KnowledgeBase}
import repro.learn.{Aggregator, Aggregators, CombinedAgg}
import repro.matching._
import repro.newdetect._

/** Shared stage outputs over one table corpus (paper Figure 1). The early
  * stages (type detection, label attribute, table-to-class) are corpus-wide;
  * everything downstream runs per class.
  */
class Pipeline(val spark: SparkSession, val kb: KnowledgeBase,
               val cells: DataFrame, val columns: DataFrame,
               val propertyLabels: Map[String, Seq[String]]) {
  import spark.implicits._

  // localCheckpoint at every stage boundary: the pipeline stacks many joins
  // and self-joins, and without truncating lineage Catalyst re-analyzes (and
  // stringifies) an exponentially growing plan on every downstream action.
  lazy val detectedTypes: DataFrame = TypeDetector.detect(spark, cells).localCheckpoint()
  lazy val labelCols: DataFrame =
    LabelAttributeDetector.detect(spark, cells, detectedTypes).localCheckpoint()
  lazy val tableClassAndCands: (DataFrame, DataFrame) = {
    val (tc, cands) = TableClassMatcher.matchClasses(spark, cells, labelCols, kb)
    (tc.localCheckpoint(), cands.localCheckpoint())
  }
  def tableClass: DataFrame = tableClassAndCands._1
  def rowCands: DataFrame = tableClassAndCands._2

  /** Tables assigned to a class. */
  def classTables(cls: String): DataFrame =
    tableClass.filter($"cls" === cls).select($"tableId")

  /** Attribute matcher features for a given iteration's prior outputs. */
  def attrFeatures(prior: Option[PriorOutputs]): DataFrame =
    AttributeMatcher.features(spark, cells, columns, detectedTypes, labelCols,
                              tableClass, kb, propertyLabels, prior).localCheckpoint()

  /** Iteration-1 features are prior-free and shared across folds/classes. */
  lazy val attrFeatures1: DataFrame = attrFeatures(None)

  /** Apply a learned attribute model; returns colKey -> (property, score). */
  def attrCorrespondences(feats: DataFrame, model: AttributeMatcher.AttrModel): Map[Long, (String, Double)] =
    AttributeMatcher.matchAttributes(spark, feats, model).collect()
      .map(r => Keys.colKey(r.getLong(0), r.getInt(1)) -> (r.getString(3), r.getDouble(4)))
      .toMap

  private val baseCache = scala.collection.mutable.Map.empty[String, Dataset[RowBase]]
  /** Mapping-independent row profiles of a class (labels, tokens, PHI,
    * implicit attributes, raw cells). Built once: the iterations differ only
    * in the schema mapping.
    */
  private def profileBase(cls: String): Dataset[RowBase] =
    baseCache.getOrElseUpdate(cls,
      RowProfiles.base(spark, cls, cells, labelCols, classTables(cls), rowCands, kb))

  /** Row profiles for one class under a given attribute mapping. */
  def profiles(cls: String, attrCorr: Map[Long, String]): Dataset[RowProfile] =
    RowProfiles.withValues(spark, profileBase(cls), attrCorr).localCheckpoint()

  /** A class's label blocking: candidate pairs and block-connected
    * components (rowKey -> root; its key set is the class's rows).
    */
  private case class ClassBlocking(pairs: DataFrame, comps: Map[Long, Long])
  private val blockingCache = scala.collection.mutable.Map.empty[String, ClassBlocking]
  /** Blocking reads only rowKey and normLabel, so it is built once per class
    * from the profile base.
    */
  private def blocking(cls: String): ClassBlocking =
    blockingCache.getOrElseUpdate(cls, {
      val base = profileBase(cls).toDF()
      val blocks = Blocking.rowBlocks(spark, base).localCheckpoint()
      val pairs = Blocking.candidatePairs(spark, blocks).localCheckpoint()
      val blockSeq = blocks.collect().map(r => (r.getLong(0), r.getString(1))).toSeq
      val allRows = base.select($"rowKey").as[Long].collect().toSeq
      ClassBlocking(pairs, Blocking.components(blockSeq, allRows))
    })

  /** Pair features and components for one class's profiles. The profiles
    * must be all rows of one class (under any mapping): blocking is
    * memoized per class and only the pair features are computed here.
    */
  def pairStage(profilesDS: Dataset[RowProfile]):
      (Dataset[PairFeature], Map[Long, Long]) = {
    val rows = profilesDS.select($"rowKey", $"cls").as[(Long, String)].collect()
    val (pairs, comps) = rows.map(_._2).distinct match {
      case Array() => (Seq.empty[(Long, Long)].toDF("a", "b"), Map.empty[Long, Long])
      case Array(cls) =>
        val b = blocking(cls)
        val keys = rows.map(_._1)
        require(keys.length == b.comps.size && keys.toSet == b.comps.keySet,
          s"pairStage needs all ${b.comps.size} rows of class $cls, each once; " +
          s"got ${keys.length} rows, ${keys.distinct.length} distinct")
        (b.pairs, b.comps)
      case classes =>
        throw new IllegalArgumentException(
          s"pairStage needs the rows of one class, got ${classes.sorted.mkString(", ")}")
    }
    val feats = PairFeatures.compute(spark, profilesDS, pairs, kb.propertyTypes).localCheckpoint()
    (feats, comps)
  }

  /** Cluster one class given scored pair features. */
  def cluster(feats: Dataset[PairFeature], comps: Map[Long, Long],
              agg: Aggregator, featIdx: Array[Int]): Map[Long, Long] = {
    val edges = GreedyClusterer.scoreEdges(spark, feats, agg, featIdx)
    GreedyClusterer.cluster(spark, edges, comps)
  }

  /** Column trust for KBT fusion: fraction of a column's cells equal to the
    * KB fact of the row's best label-candidate instance.
    */
  def columnTrust(attrCorr: Map[Long, String]): Map[Long, Double] = {
    val factIndexB = kb.factIndexB
    val attrB = spark.sparkContext.broadcast(attrCorr)
    val typesB = kb.propertyTypesB
    val top1 = rowCands.withColumn("rk", row_number().over(
        org.apache.spark.sql.expressions.Window
          .partitionBy($"tableId", $"rowId").orderBy($"labelSim".desc, $"uri")))
      .filter($"rk" === 1).select($"tableId", $"rowId", $"uri")
    cells.join(top1, Seq("tableId", "rowId"))
      .select($"tableId", $"colId", $"rowId", $"raw", $"uri")
      .as[(Long, Int, Int, String, String)]
      .flatMap { case (t, c, _, raw, uri) =>
        for {
          prop <- attrB.value.get(Keys.colKey(t, c))
          fact <- factIndexB.value.get(uri).flatMap(_.get(prop))
          dt   <- typesB.value.get(prop)
        } yield (Keys.colKey(t, c), if (TypeSim.equal(dt, raw, fact)) 1.0 else 0.0)
      }
      .groupByKey(_._1).mapGroups { (ck, it) =>
        val xs = it.map(_._2).toSeq; (ck, xs.sum / xs.size)
      }.collect().toMap
  }

  /** Entity creation for one class. */
  def entities(profilesDS: Dataset[RowProfile], clusters: Map[Long, Long],
               scoring: FusionScoring, colScores: Map[Long, Double]): Dataset[Entity] =
    EntityCreation.create(spark, profilesDS, clusters, kb.propertyTypes, scoring, colScores)

  /** New detection for one class; returns entityKey -> Detection. */
  def detect(cls: String, ents: Dataset[Entity], agg: Aggregator, featIdx: Array[Int],
             tNew: Double, tMatch: Double): Map[Long, Detection] = {
    val snapshot = detectSnapshot(cls)
    val idx = NewDetector.tokenIndex(snapshot)
    NewDetector.classify(spark, ents, idx, snapshot, kb.propertyTypes, kb.classParents,
                         agg, featIdx, tNew, tMatch)
      .collect().map {
        case (k, "", _)  => k -> (DetectedNew: Detection)
        case (k, "?", _) => k -> (Undecided: Detection)
        case (k, u, s)   => k -> (DetectedExisting(u, s): Detection)
      }.toMap
  }

  private val snapshotCache = scala.collection.mutable.Map.empty[String, IndexedSeq[KBInstanceLocal]]
  /** Candidate instances for new detection: the entity's class plus sibling
    * classes sharing a parent (the paper requires candidates to be "of the
    * class of the created entity or share one parent class").
    */
  def detectSnapshot(cls: String): IndexedSeq[KBInstanceLocal] =
    snapshotCache.getOrElseUpdate(cls, {
      val parents = kb.classParents.getOrElse(cls, Nil).toSet
      val related = kb.classParents.collect {
        case (c, ps) if c == cls || ps.exists(parents.contains) => c
      }.toSeq
      related.flatMap(kb.localSnapshot).toIndexedSeq
    })
}

/** Models learned for one class (aggregators for clustering and detection,
  * detection thresholds, metric subsets in use).
  */
case class ClassModels(clusterAgg: Aggregator, clusterMetrics: Seq[String],
                       detectAgg: Aggregator, detectMetrics: Seq[String],
                       tNew: Double, tMatch: Double)

/** One class's outputs of one iteration. */
case class ClassRun(cls: String, attrCorr: Map[Long, (String, Double)],
                    clusters: Map[Long, Long],
                    entities: Seq[Entity], detections: Map[Long, Detection],
                    profiles: Seq[RowProfile]) {
  /** What the next iteration's schema matching takes from this one: the
    * mapping, the row clusters, and the rows of entities matched to a KB
    * instance.
    */
  def prior: PriorOutputs = PriorOutputs(
    prelimAttr = attrCorr.map { case (k, v) => k -> v._1 },
    rowCluster = clusters,
    rowInstance = entities.flatMap { e =>
      detections.get(e.entityKey) match {
        case Some(DetectedExisting(uri, _)) => e.rowKeys.map(_ -> uri)
        case _ => Nil
      }
    }.toMap)
}

object PipelineRunner {

  /** Learn the clustering aggregator from gold pairs. Pairs are labeled by
    * shared gold cluster; only rows of `learnRows` participate.
    */
  def learnClusterAgg(feats: Seq[PairFeature], goldCluster: Map[Long, Long],
                      learnRows: Set[Long], metrics: Seq[String], seed: Long): (CombinedAgg, Array[Int]) = {
    val usable = feats.filter(p => learnRows.contains(p.a) && learnRows.contains(p.b) &&
                                   goldCluster.contains(p.a) && goldCluster.contains(p.b))
    train(RowSimilarity, metrics, usable.map(p => (p.features, goldCluster(p.a) == goldCluster(p.b))), seed)
  }

  /** Learn the new-detection aggregator + thresholds from gold entities. */
  def learnDetect(pipe: Pipeline, cls: String, ents: Seq[Entity],
                  truth: Map[Long, Option[String]], metrics: Seq[String],
                  seed: Long): (CombinedAgg, Array[Int], Double, Double) = {
    val snapshot = pipe.detectSnapshot(cls)
    val idx = NewDetector.tokenIndex(snapshot)
    val labeled = ents.flatMap { e =>
      truth.get(e.entityKey).map { t =>
        (e.entityKey, NewDetector.candidateFeatures(e, idx, snapshot, pipe.kb.propertyTypes,
                                                    pipe.kb.classParents), t)
      }
    }
    val (agg, fi) = train(EntitySimilarity, metrics,
      labeled.flatMap { case (_, cands, t) => cands.map { case (uri, f) => (f.toSeq, t.contains(uri)) } },
      seed)
    val learnSet = labeled.map { case (k, cands, t) =>
      (k, cands.map { case (u, f) => (u, agg.normScore(fi.map(f))) }, t)
    }
    val (tn, tm) = NewDetector.learnThresholds(learnSet)
    (agg, fi, tn, tm)
  }

  /** Train an aggregator on the active metrics' features of labeled full
    * vectors; returns it with the feature indices it reads.
    */
  private def train(kernel: MetricVector, metrics: Seq[String],
                    samples: Seq[(Seq[Double], Boolean)], seed: Long): (CombinedAgg, Array[Int]) = {
    val fi = kernel.featureIndices(metrics)
    val scoresWithin = kernel.scoreIndices(metrics).map(fi.indexOf(_))
    val agg = Aggregators.train(samples.map(s => fi.map(s._1)).toArray, samples.map(_._2).toArray,
                                scoresWithin, seed)
    (agg, fi)
  }

  /** One pass of the pipeline for one class under a schema mapping:
    * profiles, clustering, entity creation and new detection.
    */
  def runIteration(pipe: Pipeline, cls: String, corr: Map[Long, (String, Double)],
                   models: ClassModels, scoring: FusionScoring = Voting): ClassRun = {
    import pipe.spark.implicits._
    val prof = pipe.profiles(cls, corr.map { case (k, v) => k -> v._1 })
    val (pf, comps) = pipe.pairStage(prof)
    val clusters = pipe.cluster(pf, comps,
      models.clusterAgg, RowSimilarity.featureIndices(models.clusterMetrics))
    val ents = pipe.entities(prof, clusters, scoring,
                             fusionScores(pipe, corr, scoring)).collect().toSeq
    val det = pipe.detect(cls, ents.toDS(), models.detectAgg,
      EntitySimilarity.featureIndices(models.detectMetrics), models.tNew, models.tMatch)
    ClassRun(cls, corr, clusters, ents, det, prof.collect().toSeq)
  }

  /** Column weights for the configured fusion scoring approach. */
  def fusionScores(pipe: Pipeline, corr: Map[Long, (String, Double)],
                   scoring: FusionScoring): Map[Long, Double] = scoring match {
    case Voting   => Map.empty
    case Matching => corr.map { case (k, v) => k -> v._2 }
    case KBT      => pipe.columnTrust(corr.map { case (k, v) => k -> v._1 })
  }
}
