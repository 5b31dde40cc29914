package perfbench

import org.apache.spark.sql.Dataset
import repro.clustering.{ClusteringEval, GreedyClusterer, PairFeature, RowSimilarity}
import repro.core.{ClassModels, ClassRun, PipelineRunner}
import repro.eval.{Experiment, Metrics}
import repro.fusion.{Entity, Voting}
import repro.matching.{AttributeMatcher, PriorOutputs, TableClassMatcher}
import repro.newdetect.{DetectedExisting, DetectedNew, Detection, EntitySimilarity, NewDetector, Undecided}
import repro.world.Schemas

/** What one repetition produced: the final outputs, plus (traced runs only)
  * the last iteration's pair stage for the per-layer counts.
  */
case class RunOutput(corr: Map[Long, (String, Double)], run: Option[ClassRun],
                     models: Option[ClassModels],
                     pairs2: Option[(Dataset[PairFeature], Map[Long, Long])])

/** The benchmark's workloads. `run` is the untraced path through the public
  * harness (`Experiment.learnFold` + `Experiment.fullRun`, or corpus-wide
  * schema matching); `traced` rebuilds the same work from the stage calls so
  * each layer gets its own spans.
  */
sealed trait Workload {
  def name: String
  def run(ctx: Experiment.Ctx): RunOutput
  def traced(ctx: Experiment.Ctx, t: Tracer): RunOutput
}

object Workload {
  val all: Seq[Workload] = Seq(
    FullRun("gfplayer-bench", Schemas.GFPlayer),
    FullRun("song-bench", Schemas.Song),
    MatchOnly)

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Iteration-1 schema matching, shared by every workload. */
  def matching(ctx: Experiment.Ctx, t: Tracer, corrSuffix: String): Map[Long, (String, Double)] = {
    val pipe = ctx.pipe
    t.span("matching.types_s")(pipe.detectedTypes)
    t.span("matching.label_cols_s")(pipe.labelCols)
    t.span("matching.table_class_s")(pipe.tableClassAndCands)
    t.span("matching.attr_features_s.it1")(pipe.attrFeatures1)
    t.span("learn.attr_model_s.it1")(ctx.attrModel1)
    t.span(s"matching.correspondences_s.$corrSuffix")(ctx.corr1)
  }
}

object MatchOnly extends Workload {
  val name = "match-bench"

  def run(ctx: Experiment.Ctx): RunOutput = {
    val pipe = ctx.pipe
    pipe.detectedTypes
    pipe.labelCols
    pipe.tableClassAndCands
    pipe.attrFeatures1
    ctx.attrModel1
    RunOutput(ctx.corr1, None, None, None)
  }

  def traced(ctx: Experiment.Ctx, t: Tracer): RunOutput =
    RunOutput(Workload.matching(ctx, t, "it1"), None, None, None)
}

/** `learnFold` on all gold clusters of a class, then the two-iteration
  * `fullRun` with VOTING fusion.
  */
case class FullRun(name: String, cls: String) extends Workload {

  def allClusters(ctx: Experiment.Ctx): Set[Long] =
    ctx.goldClustersOf(cls).map(_.entityId).toSet

  def run(ctx: Experiment.Ctx): RunOutput = {
    val models = Experiment.learnFold(ctx, cls, allClusters(ctx))
    val run = Experiment.fullRun(ctx, cls, models, Voting)
    RunOutput(run.attrCorr, Some(run), Some(models), None)
  }

  def traced(ctx: Experiment.Ctx, t: Tracer): RunOutput = {
    val models = learnFold(ctx, t)
    val (run, pairs2) = fullRun(ctx, t, models)
    RunOutput(run.attrCorr, Some(run), Some(models), Some(pairs2))
  }

  /** `Experiment.learnFold` with its default metrics and seed, stage by stage. */
  private def learnFold(ctx: Experiment.Ctx, t: Tracer): ClassModels = {
    val pipe = ctx.pipe
    val all = allClusters(ctx)
    Workload.matching(ctx, t, "learn")
    t.span("clustering.profiles_s.learn")(ctx.profiles1(cls))
    val pairFeats = t.span("clustering.pairs_s.learn") { ctx.pairStage1(cls); ctx.goldPairs1(cls) }
    val learnRows = ctx.goldRowCluster.filter { case (_, gid) => all.contains(gid) }.keySet
    val clusterMetrics = RowSimilarity.metricNames
    val detectMetrics = EntitySimilarity.metricNames
    val seed = 5L
    val (clusterAgg, _) = t.span("learn.cluster_agg_s") {
      PipelineRunner.learnClusterAgg(pairFeats, ctx.goldRowCluster, learnRows, clusterMetrics, seed)
    }
    t.span("kb.snapshot_s")(pipe.detectSnapshot(cls))
    val (detectAgg, _, tn, tm) = t.span("learn.detect_s") {
      val learnEnts = Experiment.goldEntities(ctx, cls, all)
      PipelineRunner.learnDetect(pipe, cls, learnEnts, truth(ctx, all), detectMetrics, seed + 1)
    }
    ClassModels(clusterAgg, clusterMetrics, detectAgg, detectMetrics, tn, tm)
  }

  def truth(ctx: Experiment.Ctx, clusters: Set[Long]): Map[Long, Option[String]] =
    clusters.toSeq.map { gid =>
      val c = ctx.gold.clusterById(gid)
      gid -> (if (c.isNew) None else Some(c.uri))
    }.toMap

  /** `Experiment.fullRun` (both `PipelineRunner` iterations), stage by stage. */
  private def fullRun(ctx: Experiment.Ctx, t: Tracer, models: ClassModels):
      (ClassRun, (Dataset[PairFeature], Map[Long, Long])) = {
    val pipe = ctx.pipe
    import pipe.spark.implicits._
    val clusterIdx = RowSimilarity.featureIndices(models.clusterMetrics)
    val detectIdx = EntitySimilarity.featureIndices(models.detectMetrics)

    def iteration(it: String, corr: Map[Long, (String, Double)]) = {
      val prof = t.span(s"clustering.profiles_s.$it") {
        pipe.profiles(cls, corr.map { case (k, v) => k -> v._1 }).cache()
      }
      val (pf, comps) = t.span(s"clustering.pairs_s.$it")(pipe.pairStage(prof))
      val clusters = t.span(s"clustering.cluster_s.$it") {
        pipe.cluster(pf, comps, models.clusterAgg, clusterIdx)
      }
      val ents = t.span(s"fusion.entities_s.$it") {
        pipe.entities(prof, clusters, Voting,
          PipelineRunner.fusionScores(pipe, corr, Voting)).collect().toSeq
      }
      val det = t.span(s"newdetect.detect_s.$it") {
        pipe.detect(cls, ents.toDS(), models.detectAgg, detectIdx, models.tNew, models.tMatch)
      }
      (prof, pf, comps, clusters, ents, det)
    }

    val corr1 = t.span("matching.correspondences_s.it1") {
      pipe.attrCorrespondences(pipe.attrFeatures1, ctx.attrModel1)
    }
    val (_, _, _, clusters1, ents1, det1) = iteration("it1", corr1)
    val rowInstance = ents1.flatMap { e =>
      det1.get(e.entityKey) match {
        case Some(DetectedExisting(uri, _)) => e.rowKeys.map(_ -> uri)
        case _ => Nil
      }
    }.toMap
    val prior = PriorOutputs(
      prelimAttr = corr1.map { case (k, v) => k -> v._1 },
      rowCluster = clusters1,
      rowInstance = rowInstance)

    // fullRun computes the iteration-2 features once to learn the model and
    // runIteration2 computes them again; both calls are kept.
    val feats2learn = t.span("matching.attr_features_s.it2")(pipe.attrFeatures(Some(prior)))
    val attr2 = t.span("learn.attr_model_s.it2") {
      AttributeMatcher.learn(ctx.spark, feats2learn, ctx.goldAttrMap, ctx.gold.tableIds)
    }
    val feats2 = t.span("matching.attr_features_s.it2")(pipe.attrFeatures(Some(prior)))
    val corr2 = t.span("matching.correspondences_s.it2")(pipe.attrCorrespondences(feats2, attr2))
    val (prof2, pf2, comps2, clusters2, ents2, det2) = iteration("it2", corr2)
    val profRows = t.span("clustering.profiles_s.it2")(prof2.collect().toSeq)
    (ClassRun(cls, corr2, clusters2, ents2, det2, profRows), (pf2, comps2))
  }
}

/** Quality metrics (in-sample models: regression guards, not paper numbers)
  * and the per-layer counts of the traced run.
  */
object Measures {

  private def predictedCorr(corr: Map[Long, (String, Double)]): Seq[((Long, Int), String)] =
    corr.toSeq.map { case (ck, (p, _)) => ((ck / 1000L, (ck % 1000L).toInt), p) }

  def quality(ctx: Experiment.Ctx, w: Workload, out: RunOutput): Map[String, Double] = {
    val predicted = ctx.pipe.tableClass.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val truth = ctx.corpus.tableClassTruth
    val tableAcc = truth.count { case (t, c) => predicted.get(t).contains(c) }.toDouble / truth.size
    val attrF1 = AttributeMatcher.evaluate(predictedCorr(out.corr), ctx.goldAttrMap, ctx.gold.tableIds)._3
    val base = Map("table_class_acc" -> tableAcc, "attr_f1" -> attrF1)
    (w, out.run) match {
      case (f: FullRun, Some(run)) =>
        val all = f.allClusters(ctx)
        base ++ Map(
          "new_instances_f1" -> Metrics.newInstancesFound(run.entities, run.detections,
            ctx.rowGoldAll, ctx.gold, all).f1,
          "facts_f1" -> Metrics.factsFound(run.entities, run.detections,
            ctx.rowGoldAll, ctx.gold, all, ctx.schema).f1)
      case _ => base
    }
  }

  /** Domain counts at each layer boundary. Computed after the traced run,
    * outside every span.
    */
  def counts(ctx: Experiment.Ctx, w: Workload, out: RunOutput): Map[String, Double] = {
    val pipe = ctx.pipe
    val labelRows = TableClassMatcher.rowLabels(pipe.cells, pipe.labelCols)
      .select("tableId", "rowId").distinct().count()
    val candRows = pipe.rowCands.select("tableId", "rowId").distinct().count()
    val base = Map(
      "kb.instances" -> ctx.kb.instancesSeq.size.toDouble,
      "matching.row_cands" -> pipe.rowCands.count().toDouble,
      "matching.tables_matched" -> pipe.tableClass.count().toDouble,
      "matching.cand_row_share" -> (if (labelRows == 0) 0.0 else candRows.toDouble / labelRows))
    (w, out.run, out.models, out.pairs2) match {
      case (f: FullRun, Some(run), Some(models), Some((pf2, comps2))) =>
        base ++ fullRunCounts(ctx, f, run, models, pf2, comps2)
      case _ => base
    }
  }

  private def fullRunCounts(ctx: Experiment.Ctx, f: FullRun, run: ClassRun, models: ClassModels,
                            pf2: Dataset[PairFeature], comps2: Map[Long, Long]): Map[String, Double] = {
    val pipe = ctx.pipe
    val all = f.allClusters(ctx)
    val goldRows = ctx.goldRowCluster.filter { case (_, g) => all.contains(g) }
    val trainPairs = ctx.goldPairs1(f.cls).count(p => goldRows.contains(p.a) && goldRows.contains(p.b))
    val snapshot = pipe.detectSnapshot(f.cls)
    val idx = NewDetector.tokenIndex(snapshot)
    val trainCands = Experiment.goldEntities(ctx, f.cls, all).map { e =>
      NewDetector.candidateFeatures(e, idx, snapshot, ctx.schema, ctx.kb.classParents).size
    }.sum

    val candidatePairs = pf2.count()
    val positive = GreedyClusterer.scoreEdges(ctx.spark, pf2, models.clusterAgg,
      RowSimilarity.featureIndices(models.clusterMetrics)).filter(_.score > 0).count()
    val compSizes = comps2.values.groupBy(identity).values.map(_.size)
    val clusterF1 = ClusteringEval.evaluate(
      run.clusters.filter { case (rk, _) => goldRows.contains(rk) }, goldRows).f1

    val dets = run.entities.map(e => run.detections.get(e.entityKey))
    val nNew = dets.count(_.contains(DetectedNew))
    val nExisting = dets.count(_.exists(_.isInstanceOf[DetectedExisting]))
    val nUndecided = dets.count(_.contains(Undecided))
    Map(
      "learn.train_pairs" -> trainPairs.toDouble,
      "learn.train_candidates" -> trainCands.toDouble,
      "clustering.profile_rows" -> run.profiles.size.toDouble,
      "clustering.candidate_pairs" -> candidatePairs.toDouble,
      "clustering.components" -> compSizes.size.toDouble,
      "clustering.largest_component" -> (if (compSizes.isEmpty) 0.0 else compSizes.max.toDouble),
      "clustering.clusters" -> run.clusters.values.toSet.size.toDouble,
      "clustering.positive_pair_share" ->
        (if (candidatePairs == 0) 0.0 else positive.toDouble / candidatePairs),
      "clustering.f1" -> clusterF1,
      "fusion.entities" -> run.entities.size.toDouble,
      "fusion.facts" -> run.entities.map(_.facts.size).sum.toDouble,
      "newdetect.new" -> nNew.toDouble,
      "newdetect.existing" -> nExisting.toDouble,
      "newdetect.undecided" -> nUndecided.toDouble,
      "newdetect.decided_share" ->
        (if (run.entities.isEmpty) 0.0 else (nNew + nExisting).toDouble / run.entities.size))
  }

  /** The outputs the digest covers, as JSON; `metrics.py` puts them in a
    * canonical order. Full runs: the class's profile rows, clusters, entities
    * and detections. Every workload: the final attribute correspondences and
    * the predicted table classes.
    */
  def outputsJson(ctx: Experiment.Ctx, out: RunOutput): String = {
    import Json._
    val tc = ctx.pipe.tableClass.collect().map(r => (r.getLong(0), r.getString(1)))
    val common = Seq(
      "correspondences" -> arr(out.corr.toSeq.map { case (ck, (p, s)) => arr(Seq(num(ck), str(p), num(s))) }),
      "table_class" -> arr(tc.toSeq.map { case (t, c) => arr(Seq(num(t), str(c))) }))
    val full = out.run.toSeq.flatMap { run =>
      Seq(
        "profile_rows" -> arr(run.profiles.map(p => num(p.rowKey))),
        "clusters" -> arr(run.clusters.toSeq.map { case (r, c) => arr(Seq(num(r), num(c))) }),
        "entities" -> arr(run.entities.map(entity)),
        "detections" -> arr(run.detections.toSeq.map { case (k, d) => detection(k, d) }))
    }
    obj(common ++ full)
  }

  private def entity(e: Entity): String = {
    import Json._
    obj(Seq(
      "key" -> num(e.entityKey),
      "cls" -> str(e.cls),
      "labels" -> arr(e.labels.map(str)),
      "rows" -> arr(e.rowKeys.map(num)),
      "tokens" -> arr(e.tokens.map(str)),
      "implicit" -> arr(e.implicitAtts.toSeq.map { case (k, v) => arr(Seq(str(k), num(v))) }),
      "facts" -> arr(e.facts.toSeq.map { case (k, v) => arr(Seq(str(k), str(v))) })))
  }

  private def detection(key: Long, d: Detection): String = {
    import Json._
    d match {
      case DetectedExisting(uri, s) => arr(Seq(num(key), str("existing"), str(uri), num(s)))
      case DetectedNew => arr(Seq(num(key), str("new")))
      case _ => arr(Seq(num(key), str("undecided")))
    }
  }
}

/** Minimal JSON rendering for the repetition files. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def num(l: Long): String = l.toString
  def arr(xs: Iterable[String]): String = xs.mkString("[", ",", "]")
  def obj(kv: Iterable[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}
