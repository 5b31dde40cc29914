package repro.eval

import repro.core.{DataType, TypeSim}
import repro.fusion.Entity
import repro.newdetect.{DetectedExisting, DetectedNew, Detection}
import repro.world.{GoldStandard, World}

/** Evaluation protocols of the paper's Sections 3.4, 4.1, 4.2 and 5. */
object Metrics {

  def f1(p: Double, r: Double): Double = if (p + r == 0) 0.0 else 2 * p * r / (p + r)

  /** The cluster holding the most of an entity's rows under `rowCluster`
    * (ties: smallest id), with its row count.
    */
  private def plurality(e: Entity, rowCluster: Map[Long, Long]): Option[(Long, Int)] = {
    val ids = e.rowKeys.flatMap(rowCluster.get)
    if (ids.isEmpty) None
    else Some(ids.groupBy(identity).map { case (g, xs) => (g, xs.size) }.maxBy { case (g, c) => (c, -g) })
  }

  /** Map each returned entity to the gold cluster (or truth entity) holding
    * the majority of its rows (None when no strict majority exists — a
    * wrongly created entity).
    */
  def entityGoldCluster(e: Entity, rowGold: Map[Long, Long]): Option[Long] =
    plurality(e, rowGold).collect { case (gid, cnt) if cnt * 2 > e.rowKeys.size => gid }

  /** New-instances-found evaluation (paper Section 4.1, Table 9). An entity
    * correctly returns a new gold instance when (1) the majority of its rows
    * belong to that gold cluster, (2) it contains the majority of that
    * cluster's rows, and (3) it is classified as new.
    */
  case class PRF(precision: Double, recall: Double, f1: Double)

  def newInstancesFound(entities: Seq[Entity], detections: Map[Long, Detection],
                        rowGold: Map[Long, Long], gold: GoldStandard,
                        evalClusters: Set[Long]): PRF = {
    val goldRowsByCluster = gold.rows.groupBy(_.entityId)
      .map { case (eid, rs) => eid -> rs.map(r => repro.matching.Keys.rowKey(r.tableId, r.rowId)).toSet }
    // (1) the majority of the entity's rows describe gid — judged over the
    // full-corpus truth (a full-system cluster legitimately absorbs bulk
    // rows of the same instance); (2) the entity contains the majority of
    // the instance's annotated gold-table rows.
    def correctlyReturns(e: Entity, gid: Long): Boolean = {
      val grows = goldRowsByCluster.getOrElse(gid, Set.empty)
      val overlap = e.rowKeys.count(grows.contains)
      entityGoldCluster(e, rowGold).contains(gid) && overlap * 2 > grows.size
    }
    val newGold = evalClusters.filter(gid => gold.clusterById(gid).isNew)
    val returnedNew = entities.filter(e => detections.get(e.entityKey).contains(DetectedNew))
      .filter(e => e.rowKeys.exists(rowGold.contains))
      // attribute each returned entity to the fold of its plurality cluster
      .filter(e => plurality(e, rowGold).exists(g => evalClusters.contains(g._1)))
    val correctEntities = returnedNew.filter { e =>
      entityGoldCluster(e, rowGold).exists(g => newGold.contains(g) && correctlyReturns(e, g))
    }
    val found = newGold.filter { gid =>
      returnedNew.exists(e => correctlyReturns(e, gid))
    }
    val p = if (returnedNew.isEmpty) 0.0 else correctEntities.size.toDouble / returnedNew.size
    val r = if (newGold.isEmpty) 0.0 else found.size.toDouble / newGold.size
    PRF(p, r, f1(p, r))
  }

  /** Facts-found evaluation (paper Section 4.2, Table 10), over new entities:
    * facts of entities mapped to a new gold cluster are judged against the
    * gold facts; facts of wrongly created or wrongly-new entities count as
    * wrong. Recall denominator: gold value groups whose correct value is
    * present in the tables.
    */
  def factsFound(entities: Seq[Entity], detections: Map[Long, Detection],
                 rowGold: Map[Long, Long], gold: GoldStandard,
                 evalClusters: Set[Long], schema: Map[String, DataType]): PRF = {
    val goldFactsByCluster = gold.facts.groupBy(_.entityId)
    var tp = 0; var fp = 0
    entities.foreach { e =>
      if (detections.get(e.entityKey).contains(DetectedNew) &&
          e.rowKeys.exists(rowGold.contains)) {
        val mapped = entityGoldCluster(e, rowGold)
          .filter(g => evalClusters.contains(g) && gold.clusterById(g).isNew)
        mapped match {
          case Some(gid) =>
            val gf = goldFactsByCluster.getOrElse(gid, Nil).map(f => f.property -> f.value).toMap
            e.facts.foreach { case (p, v) =>
              gf.get(p) match {
                case Some(correct) =>
                  if (TypeSim.equal(schema.getOrElse(p, DataType.Text), v, correct)) tp += 1
                  else fp += 1
                case None => // property outside the gold value groups (fused
                             // from bulk tables): out of the paper's protocol
              }
            }
          case None =>
            // wrongly created or wrongly-new: its facts count as wrong in
            // the fold of its plurality cluster (single-counted across folds)
            if (plurality(e, rowGold).exists(g => evalClusters.contains(g._1)))
              fp += e.facts.size
        }
      }
    }
    val denom = evalClusters.toSeq.filter(g => gold.clusterById(g).isNew)
      .flatMap(g => goldFactsByCluster.getOrElse(g, Nil)).count(_.presentInTables)
    val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val r = if (denom == 0) 0.0 else math.min(1.0, tp.toDouble / denom)
    PRF(p, r, f1(p, r))
  }

  /** New-detection evaluation (paper Section 3.4, Table 8) on entities built
    * from gold clusters: accuracy + separate F1 for existing and new.
    */
  case class DetectEval(accuracy: Double, f1Existing: Double, f1New: Double)

  def detectionEval(results: Seq[(Long, Detection)], gold: GoldStandard): DetectEval = {
    val total = results.size
    var correct = 0
    var tpN = 0; var fpN = 0; var fnN = 0
    var tpE = 0; var fpE = 0; var fnE = 0
    results.foreach { case (gid, det) =>
      val truth = gold.clusterById(gid)
      det match {
        case DetectedNew =>
          if (truth.isNew) { correct += 1; tpN += 1 } else { fpN += 1; fnE += 1 }
        case DetectedExisting(uri, _) =>
          if (!truth.isNew && truth.uri == uri) { correct += 1; tpE += 1 }
          else { fpE += 1; if (truth.isNew) fnN += 1 else fnE += 1 }
        case _ =>
          if (truth.isNew) fnN += 1 else fnE += 1
      }
    }
    def prf(tp: Int, fp: Int, fn: Int): Double = {
      val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
      val r = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
      f1(p, r)
    }
    DetectEval(if (total == 0) 0.0 else correct.toDouble / total,
               prf(tpE, fpE, fnE), prf(tpN, fpN, fnN))
  }

  /** Large-scale profiling (paper Section 5, Table 11): judge the returned
    * entities against the generation ground truth of the world.
    */
  case class LargeScale(totalRows: Long, existingEntities: Long, matchedInstances: Long,
                        matchingRatio: Double, newEntities: Long, newFacts: Long,
                        newEntityAccuracy: Double, newFactAccuracy: Double)

  def largeScale(entities: Seq[Entity], detections: Map[Long, Detection],
                 rowTruthEntity: Map[Long, Long], world: World,
                 totalRows: Long, schema: Map[String, DataType]): LargeScale = {
    val existing = entities.filter(e => detections.get(e.entityKey).exists(_.isInstanceOf[DetectedExisting]))
    val matchedUris = existing.flatMap(e => detections(e.entityKey) match {
      case DetectedExisting(u, _) => Some(u); case _ => None
    }).distinct
    val newEnts = entities.filter(e => detections.get(e.entityKey).contains(DetectedNew))

    val judged = newEnts.map { e =>
      (e, entityGoldCluster(e, rowTruthEntity).exists(id => !world.entityById(id).inKB))
    }
    val entAcc = if (judged.isEmpty) 0.0 else judged.count(_._2).toDouble / judged.size
    // fact accuracy is judged against the entity's true description even when
    // the entity was wrongly returned as new — the paper's annotators judged
    // fact correctness independently of new-ness (GF: entAcc 0.60, factAcc 0.95)
    var factsTotal = 0; var factsCorrect = 0
    judged.foreach { case (e, _) =>
      factsTotal += e.facts.size
      entityGoldCluster(e, rowTruthEntity).foreach { id =>
        val truth = world.entityById(id).truth
        e.facts.foreach { case (p, v) =>
          if (truth.get(p).exists(t => TypeSim.equal(schema.getOrElse(p, DataType.Text), v, t)))
            factsCorrect += 1
        }
      }
    }
    val factAcc = if (factsTotal == 0) 0.0 else factsCorrect.toDouble / factsTotal
    LargeScale(totalRows, existing.size.toLong, matchedUris.size.toLong,
               if (matchedUris.isEmpty) 0.0 else existing.size.toDouble / matchedUris.size,
               newEnts.size.toLong, newEnts.map(_.facts.size.toLong).sum, entAcc, factAcc)
  }

  /** Property densities of returned new entities (paper Table 12). */
  def newEntityDensities(entities: Seq[Entity], detections: Map[Long, Detection]): Map[String, (Long, Double)] = {
    val newEnts = entities.filter(e => detections.get(e.entityKey).contains(DetectedNew))
    if (newEnts.isEmpty) Map.empty
    else newEnts.flatMap(_.facts.keys).groupBy(identity).map { case (p, xs) =>
      p -> (xs.size.toLong, xs.size.toDouble / newEnts.size)
    }
  }
}
