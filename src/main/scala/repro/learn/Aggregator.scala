package repro.learn

/** Similarity-score aggregation (paper Sections 3.2/3.4): weighted average
  * with GA-learned weights, random-forest regression, or their combination.
  * All aggregators emit a normalized score in [-1, 1]; scores above zero
  * mean "same instance".
  */
sealed trait Aggregator extends Serializable {
  /** Normalized score in [-1,1] for a full feature vector. */
  def normScore(f: Array[Double]): Double
  /** Per-feature importance (aligned with the score indices it consumes). */
  def importances: Array[Double]
}

/** Weighted average over the *score* features (confidence features are
  * ignored, paper Section 3.2); the learned threshold maps [0,1] to [-1,1].
  */
case class WeightedAvgAgg(weights: Array[Double], scoreIdx: Array[Int],
                          threshold: Double) extends Aggregator {
  def normScore(f: Array[Double]): Double = {
    val s = Genetic.waScore(weights, scoreIdx.map(f))
    if (s >= threshold) {
      if (threshold >= 1.0) 0.0 else (s - threshold) / (1.0 - threshold)
    } else {
      if (threshold <= 0.0) 0.0 else (s - threshold) / threshold
    }
  }
  def importances: Array[Double] = weights
}

/** Random forest trained on targets {-1, +1}; predictions are clipped. */
case class ForestAgg(model: RandomForest.Model, scoreIdx: Array[Int]) extends Aggregator {
  def normScore(f: Array[Double]): Double =
    math.max(-1.0, math.min(1.0, model.predict(f)))
  /** Importances projected onto the score features so they align with the
    * weighted-average weights when averaged for "metric importance".
    */
  def importances: Array[Double] = {
    val onScores = scoreIdx.map(model.importances)
    val t = onScores.sum
    if (t == 0) onScores else onScores.map(_ / t)
  }
}

/** Combination of both aggregators by a (learned) mixing factor. */
case class CombinedAgg(wa: WeightedAvgAgg, rf: ForestAgg, alpha: Double) extends Aggregator {
  def normScore(f: Array[Double]): Double =
    alpha * wa.normScore(f) + (1 - alpha) * rf.normScore(f)
  def importances: Array[Double] =
    wa.importances.zip(rf.importances).map { case (a, b) => (a + b) / 2 }
}

object Aggregators {
  /** Train the weighted average and the forest on labeled pair features and
    * combine them.
    *
    * @param features full feature rows (scores + confidences)
    * @param labels   true = matching pair
    * @param scoreIdx indices of score features (used by the weighted average)
    */
  def train(features: Array[Array[Double]], labels: Array[Boolean],
            scoreIdx: Array[Int], seed: Long = 5): CombinedAgg = {
    val scoreRows = features.map(f => scoreIdx.map(f))
    val ga = Genetic.learn(scoreRows, labels, seed)
    val wa = WeightedAvgAgg(ga.weights, scoreIdx, ga.threshold)

    // upsample positives for the forest too, targets in {-1, +1}
    val pos = features.indices.filter(labels(_))
    val neg = features.indices.filterNot(labels(_))
    val idx: Array[Int] =
      if (pos.isEmpty || neg.isEmpty) features.indices.toArray
      else (neg ++ Seq.fill(math.max(1, neg.size / pos.size))(pos).flatten).toArray
    val rf = ForestAgg(
      RandomForest.train(idx.map(features), idx.map(i => if (labels(i)) 1.0 else -1.0), seed = seed + 1),
      scoreIdx)

    // learn the mixing factor by grid search on training F1
    val alphas = Seq(0.3, 0.5, 0.7)
    val best = alphas.maxBy { a =>
      val agg = CombinedAgg(wa, rf, a)
      val preds = features.map(agg.normScore(_) > 0)
      f1(preds, labels)
    }
    CombinedAgg(wa, rf, best)
  }

  def f1(preds: Array[Boolean], labels: Array[Boolean]): Double = {
    val tp = preds.indices.count(i => preds(i) && labels(i))
    val fp = preds.indices.count(i => preds(i) && !labels(i))
    val fn = preds.indices.count(i => !preds(i) && labels(i))
    if (tp == 0) 0.0
    else { val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn); 2 * p * r / (p + r) }
  }
}
