package repro.newdetect

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{DataType, MetricVector, TextSim, Values}
import repro.fusion.Entity
import repro.kb.KBInstanceLocal
import repro.learn.Aggregator

/** Classification outcome for one created entity (paper Section 3.4):
  * below the lower threshold it is new; above the upper threshold it is
  * matched to the best candidate; in between the detector abstains.
  */
sealed trait Detection extends Serializable
case object DetectedNew extends Detection
case class DetectedExisting(uri: String, score: Double) extends Detection
case object Undecided extends Detection

/** The six entity-to-instance similarity metrics as one feature vector:
  *   0 LABEL, 1 TYPE, 2 BOW, 3 ATTRIBUTE, 4 attrConf,
  *   5 IMPLICIT_ATT, 6 implConf, 7 POPULARITY
  */
object EntitySimilarity extends MetricVector {
  val metricNames: Seq[String] = Seq("LABEL", "TYPE", "BOW", "ATTRIBUTE", "IMPLICIT_ATT", "POPULARITY")

  /** LABEL: the best Monge-Elkan similarity over all label pairs. */
  def labelSim(e: Entity, inst: KBInstanceLocal): Double =
    (for (a <- e.labels.map(Values.normalize); b <- inst.labels.map(Values.normalize))
     yield TextSim.mongeElkan(a, b)).foldLeft(0.0)(math.max)

  /** Features for one (entity, candidate) pair. `popScore` is computed per
    * candidate set (rank-based) and passed in.
    */
  def features(e: Entity, inst: KBInstanceLocal, popScore: Double,
               schema: Map[String, DataType],
               classParents: Map[String, Seq[String]]): Array[Double] = {
    val f = new Array[Double](dim)
    f(0) = labelSim(e, inst)

    val eTypes = (e.cls +: classParents.getOrElse(e.cls, Nil)).toSet
    val iTypes = (inst.cls +: inst.parents).toSet
    f(1) = eTypes.intersect(iTypes).size.toDouble / eTypes.union(iTypes).size

    f(2) = TextSim.cosineBinary(e.tokens.toSet, inst.bow.toSet)
    attribute(e.facts, inst.facts, schema, f, 3)
    implicitAtt(Seq(e.implicitAtts -> ((p: String) => inst.facts.get(p))), schema, f, 5)
    f(7) = popScore
    f
  }
}

/** Candidate selection + similarity + threshold classification. */
object NewDetector {
  val topK = 20
  val minCandLabelSim = 0.6

  /** All candidate instances with features for one entity (local). */
  def candidateFeatures(e: Entity, tokenIndex: Map[String, Seq[Int]],
                        instances: IndexedSeq[KBInstanceLocal],
                        schema: Map[String, DataType],
                        classParents: Map[String, Seq[String]]): Seq[(String, Array[Double])] = {
    val eTypes = (e.cls +: classParents.getOrElse(e.cls, Nil)).toSet
    val tokens = e.labels.flatMap(l => TextSim.tokenize(Values.normalize(l))).distinct
    val counts = scala.collection.mutable.Map.empty[Int, Int]
    tokens.foreach { t =>
      tokenIndex.getOrElse(t, Nil).foreach(i => counts(i) = counts.getOrElse(i, 0) + 1)
    }
    val cands = counts.toSeq
      .map { case (i, c) => (instances(i), c) }
      .filter { case (inst, _) =>
        (inst.cls +: inst.parents).exists(eTypes.contains)
      }
      .sortBy { case (inst, c) => (-c, inst.uri) }
      .take(topK * 3)
      .map(_._1)
      .filter(inst => EntitySimilarity.labelSim(e, inst) >= minCandLabelSim)
      .take(topK)
    // popularity rank within the candidate set
    val ranked = cands.sortBy(c => (-c.popularity, c.uri)).zipWithIndex.toMap
    cands.map { inst =>
      val pop =
        if (cands.size == 1) 1.0
        else 1.0 - ranked(inst).toDouble / (cands.size - 1)
      inst.uri -> EntitySimilarity.features(e, inst, pop, schema, classParents)
    }
  }

  /** Classify entities with a trained aggregator and learned thresholds
    * (scores are in [-1,1]; `tNew` <= `tMatch`).
    */
  def classify(spark: SparkSession, entities: Dataset[Entity],
               tokenIndex: Map[String, Seq[Int]], instances: IndexedSeq[KBInstanceLocal],
               schema: Map[String, DataType], classParents: Map[String, Seq[String]],
               agg: Aggregator, featIdx: Array[Int],
               tNew: Double, tMatch: Double): Dataset[(Long, String, Double)] = {
    import spark.implicits._
    val parentsB = spark.sparkContext.broadcast(classParents)
    val idxB = spark.sparkContext.broadcast(tokenIndex)
    val instB = spark.sparkContext.broadcast(instances)
    val schemaB = spark.sparkContext.broadcast(schema)
    val aggB = spark.sparkContext.broadcast(agg)
    val fIdxB = spark.sparkContext.broadcast(featIdx)
    entities.map { e =>
      val scored = candidateFeatures(e, idxB.value, instB.value, schemaB.value, parentsB.value)
        .map { case (uri, f) => (uri, aggB.value.normScore(fIdxB.value.map(f))) }
      detectionFor(scored, tNew, tMatch) match {
        case DetectedNew               => (e.entityKey, "", 1.0)
        case DetectedExisting(uri, s)  => (e.entityKey, uri, s)
        case Undecided                 => (e.entityKey, "?", 0.0)
      }
    }
  }

  /** Apply the two-threshold rule to scored candidates. */
  def detectionFor(scored: Seq[(String, Double)], tNew: Double, tMatch: Double): Detection = {
    if (scored.isEmpty) DetectedNew
    else {
      val (uri, s) = scored.maxBy { case (u, v) => (v, u) }
      if (s < tNew) DetectedNew
      else if (s >= tMatch) DetectedExisting(uri, s)
      else Undecided
    }
  }

  /** Grid-search the two thresholds maximizing classification accuracy on
    * the learning set.
    *
    * @param learn (entityId, scored candidates, truth: Some(uri) if existing)
    */
  def learnThresholds(learn: Seq[(Long, Seq[(String, Double)], Option[String])]): (Double, Double) = {
    val grid = (-20 to 20).map(_ / 20.0)
    var best = (0.0, 0.0); var bestAcc = -1.0
    for (tn <- grid; tm <- grid if tm >= tn) {
      val acc = learn.count { case (_, scored, truth) =>
        detectionFor(scored, tn, tm) match {
          case DetectedNew              => truth.isEmpty
          case DetectedExisting(uri, _) => truth.contains(uri)
          case Undecided                => false
        }
      }.toDouble / math.max(1, learn.size)
      if (acc > bestAcc) { bestAcc = acc; best = (tn, tm) }
    }
    best
  }

  /** Build the label token index over a local instance snapshot. */
  def tokenIndex(instances: IndexedSeq[KBInstanceLocal]): Map[String, Seq[Int]] =
    instances.zipWithIndex.flatMap { case (inst, i) =>
      inst.labels.flatMap(l => TextSim.tokenize(Values.normalize(l))).distinct.map(_ -> i)
    }.groupBy(_._1).map { case (t, xs) => t -> xs.map(_._2) }
}
