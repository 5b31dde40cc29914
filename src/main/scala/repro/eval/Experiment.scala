package repro.eval

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.clustering.{PairFeature, RowProfile, RowSimilarity}
import repro.core.{ClassRun, Pipeline, PipelineRunner}
import repro.fusion.{Entity, EntityCreation, FusionScoring, Voting}
import repro.kb.KnowledgeBase
import repro.learn.CombinedAgg
import repro.matching.{AttributeMatcher, Keys}
import repro.newdetect.EntitySimilarity
import repro.world._

/** Shared harness for gold-standard experiments (tests and benches): builds
  * the world / corpus / pipeline, caches per-class stage outputs, learns
  * per-fold models, and runs the two-iteration system.
  */
object Experiment {

  /** One generated setup with memoized stage outputs. */
  class Ctx(val spark: SparkSession, val world: World, val corpus: Corpus) {
    val kb: KnowledgeBase = world.knowledgeBase(spark)
    val pipe: Pipeline = new Pipeline(spark, kb,
      corpus.cellsDF(spark).cache(), corpus.columnsDF(spark).cache(),
      Schemas.kbPropertyLabels)
    val gold: GoldStandard = corpus.gold
    val schema: Map[String, repro.core.DataType] = kb.propertyTypes

    /** Gold attribute annotations keyed by (tableId, colId). */
    val goldAttrMap: Map[(Long, Int), String] =
      gold.attrs.map(a => (a.tableId, a.colId) -> a.property).toMap
    /** Gold cluster per rowKey (gold tables only — the clustering eval). */
    val goldRowCluster: Map[Long, Long] =
      gold.rows.map(r => Keys.rowKey(r.tableId, r.rowId) -> r.entityId).toMap

    /** Gold cluster per rowKey over the WHOLE corpus: bulk-table rows of a
      * gold entity also map to its cluster. Used by the entity-level
      * evaluations — a returned cluster may legitimately absorb bulk rows of
      * the same instance, which the paper's gold-only runs could not see.
      */
    lazy val rowGoldAll: Map[Long, Long] = corpus.rowTruth
      .filter(rt => gold.clusterById.contains(rt.entityId))
      .map(rt => Keys.rowKey(rt.tableId, rt.rowId) -> rt.entityId).toMap
    def goldClustersOf(cls: String): Seq[GoldCluster] = gold.clusters.filter(_.cls == cls)

    /** Iteration-1 attribute model learned on all gold tables. */
    lazy val attrModel1: AttributeMatcher.AttrModel =
      AttributeMatcher.learn(spark, pipe.attrFeatures1, goldAttrMap, gold.tableIds)
    lazy val corr1: Map[Long, (String, Double)] =
      pipe.attrCorrespondences(pipe.attrFeatures1, attrModel1)

    private val profCache = scala.collection.mutable.Map.empty[String, Seq[RowProfile]]
    private val pairCache = scala.collection.mutable.Map.empty[String, (Dataset[PairFeature], Map[Long, Long])]
    private val goldPairCache = scala.collection.mutable.Map.empty[String, Seq[PairFeature]]

    /** Iteration-1 profiles of a class (collected; memoized). */
    def profiles1(cls: String): Seq[RowProfile] =
      profCache.getOrElseUpdate(cls, {
        pipe.profiles(cls, corr1.map { case (k, v) => k -> v._1 }).collect().toSeq
      })

    /** Iteration-1 pair features (cached Dataset) + components (memoized). */
    def pairStage1(cls: String): (Dataset[PairFeature], Map[Long, Long]) =
      pairCache.getOrElseUpdate(cls, {
        import spark.implicits._
        val profDS: Dataset[RowProfile] = profiles1(cls).toDS()
        pipe.pairStage(profDS)
      })

    /** Iteration-1 pair features restricted to gold rows (collected — this
      * is the learning input and stays small).
      */
    def goldPairs1(cls: String): Seq[PairFeature] =
      goldPairCache.getOrElseUpdate(cls, {
        val (pf, _) = pairStage1(cls)
        val goldRows = goldRowCluster.keySet
        pf.filter(p => goldRows.contains(p.a) && goldRows.contains(p.b)).collect().toSeq
      })

    /** 3-fold split of gold clusters (homonym-aware). */
    lazy val folds: Seq[Seq[Long]] = gold.folds(world)

    /** Generating world entity of every corpus row. */
    lazy val rowTruthEntity: Map[Long, Long] =
      corpus.rowTruth.map(rt => Keys.rowKey(rt.tableId, rt.rowId) -> rt.entityId).toMap
    /** Number of rows of every corpus table. */
    lazy val rowsPerTable: Map[Long, Long] = corpus.cells.groupBy(_.tableId)
      .map { case (t, cs) => t -> cs.map(_.rowId).distinct.size.toLong }
  }

  /** World and corpus configuration for a scale name: "bench", else test. */
  def scaleConfigs(scale: String): (WorldConfig, CorpusConfig) =
    if (scale == "bench") (WorldConfig.bench(), CorpusConfig.bench())
    else (WorldConfig.test(), CorpusConfig.test())

  def build(spark: SparkSession, worldCfg: WorldConfig, corpusCfg: CorpusConfig): Ctx = {
    val world = SynthWorld.generate(worldCfg)
    val corpus = SynthCorpus.generate(world, corpusCfg)
    new Ctx(spark, world, corpus)
  }

  /** Entities created directly from gold clusters (the paper's "GS
    * clustering" runs and the new-detection learning input).
    */
  def goldEntities(ctx: Ctx, cls: String, clusterIds: Set[Long],
                   scoring: FusionScoring = Voting,
                   colScores: Map[Long, Double] = Map.empty): Seq[Entity] = {
    val profByRow = ctx.profiles1(cls).map(p => p.rowKey -> p).toMap
    ctx.gold.rows.filter(r => clusterIds.contains(r.entityId))
      .groupBy(_.entityId).toSeq.sortBy(_._1).flatMap { case (eid, rows) =>
        val profs = rows.flatMap(r => profByRow.get(Keys.rowKey(r.tableId, r.rowId)))
        if (profs.isEmpty) None
        else Some(EntityCreation.fromRows(eid, profs, ctx.schema, scoring, colScores))
      }
  }

  /** Learn per-fold models for a class: clustering aggregator on the learn
    * folds' row pairs, new-detection aggregator + thresholds on the learn
    * folds' gold entities.
    */
  def learnFold(ctx: Ctx, cls: String, learnClusters: Set[Long],
                clusterMetrics: Seq[String] = RowSimilarity.metricNames,
                detectMetrics: Seq[String] = EntitySimilarity.metricNames,
                seed: Long = 5): repro.core.ClassModels = {
    val pairFeats = ctx.goldPairs1(cls)
    val learnRows = ctx.goldRowCluster.filter { case (_, gid) => learnClusters.contains(gid) }.keySet
    val (clusterAgg, _) = PipelineRunner.learnClusterAgg(
      pairFeats, ctx.goldRowCluster, learnRows, clusterMetrics, seed)

    val learnEnts = goldEntities(ctx, cls, learnClusters)
    val truth: Map[Long, Option[String]] = learnClusters.toSeq.map { gid =>
      val c = ctx.gold.clusterById(gid)
      gid -> (if (c.isNew) None else Some(c.uri))
    }.toMap
    val (detectAgg, _, tn, tm) = PipelineRunner.learnDetect(
      ctx.pipe, cls, learnEnts, truth, detectMetrics, seed + 1)
    repro.core.ClassModels(clusterAgg, clusterMetrics, detectAgg, detectMetrics, tn, tm)
  }

  /** Full two-iteration system run for one class: iteration 1 with the
    * iteration-1 attribute model, then learn the iteration-2 attribute model
    * (now including the duplicate-based matchers) on the gold annotations,
    * then iteration 2.
    */
  def fullRun(ctx: Ctx, cls: String, models: repro.core.ClassModels,
              scoring: FusionScoring = Voting): ClassRun = {
    val it1 = PipelineRunner.runIteration(ctx.pipe, cls, ctx.corr1, models, scoring)
    val feats2 = ctx.pipe.attrFeatures(Some(it1.prior))
    val attr2 = AttributeMatcher.learn(ctx.spark, feats2, ctx.goldAttrMap, ctx.gold.tableIds)
    PipelineRunner.runIteration(ctx.pipe, cls, ctx.pipe.attrCorrespondences(feats2, attr2),
                                models, scoring)
  }

  /** Large-scale profiling of a run (paper Table 11) over every table matched
    * to the run's class, judged against the world truth.
    */
  def largeScale(ctx: Ctx, run: ClassRun): Metrics.LargeScale = {
    val tables = ctx.pipe.tableClass.collect().filter(_.getString(1) == run.cls).map(_.getLong(0))
    Metrics.largeScale(run.entities, run.detections, ctx.rowTruthEntity, ctx.world,
                       tables.map(t => ctx.rowsPerTable.getOrElse(t, 0L)).sum, ctx.schema)
  }

  /** Combined importances (average of weighted-average weights and RF
    * importances) mapped onto metric names. `metricsWithIdx` carries each
    * metric's score-feature index; importances are ordered by that index.
    */
  def metricImportances(agg: CombinedAgg, metricsWithIdx: Seq[(String, Int)]): Map[String, Double] = {
    val ordered = metricsWithIdx.sortBy(_._2).map(_._1)
    ordered.zip(agg.importances.toSeq).toMap
  }
}
