package repro.learn

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Unit tests for the GA weight learner, the regression random forest and
  * the three aggregators.
  */
class LearnSpec extends AnyFunSuite {

  private def separableData(n: Int, seed: Long): (Array[Array[Double]], Array[Boolean]) = {
    val r = new Random(seed)
    val xs = Array.fill(n) {
      Array(r.nextDouble(), r.nextDouble(), r.nextDouble())
    }
    // label depends mostly on feature 0
    val ys = xs.map(f => f(0) > 0.55)
    (xs, ys)
  }

  // ---- bestThreshold --------------------------------------------------------
  test("bestThreshold finds a perfect separator") {
    val scores = Array(0.1, 0.2, 0.8, 0.9)
    val labels = Array(false, false, true, true)
    val (t, f1) = Genetic.bestThreshold(scores, labels)
    assert(f1 == 1.0)
    assert(t > 0.2 && t <= 0.8)
  }
  test("bestThreshold with all-negative labels returns F1 0") {
    val (_, f1) = Genetic.bestThreshold(Array(0.1, 0.9), Array(false, false))
    assert(f1 == 0.0)
  }
  test("bestThreshold handles interleaved labels") {
    val (_, f1) = Genetic.bestThreshold(Array(0.1, 0.4, 0.5, 0.9), Array(false, true, false, true))
    assert(f1 >= 0.5 && f1 <= 1.0)
  }

  // ---- GA ---------------------------------------------------------------------
  test("GA learns to weight the informative feature highest") {
    val (xs, ys) = separableData(300, 1)
    val learned = Genetic.learn(xs, ys, seed = 2)
    assert(learned.weights(0) > learned.weights(1))
    assert(learned.weights(0) > learned.weights(2))
    assert(learned.f1 > 0.9)
  }
  test("GA weights are normalized and non-negative") {
    val (xs, ys) = separableData(150, 3)
    val learned = Genetic.learn(xs, ys, seed = 4)
    assert(math.abs(learned.weights.sum - 1.0) < 1e-9)
    assert(learned.weights.forall(_ >= 0.0))
  }
  test("GA on empty input returns uniform weights") {
    val learned = Genetic.learn(Array.empty, Array.empty, seed = 5)
    assert(learned.weights.forall(_ >= 0.0))
  }
  test("waScore is a weighted mean") {
    assert(math.abs(Genetic.waScore(Array(1.0, 3.0), Array(0.0, 1.0)) - 0.75) < 1e-12)
  }
  test("waScore with zero weights is 0") {
    assert(Genetic.waScore(Array(0.0, 0.0), Array(0.5, 0.5)) == 0.0)
  }

  // ---- Random forest ----------------------------------------------------------
  test("random forest fits a separable regression target") {
    val (xs, ys) = separableData(400, 6)
    val targets = ys.map(b => if (b) 1.0 else -1.0)
    val model = RandomForest.train(xs, targets, nTrees = 30, seed = 7)
    val preds = xs.map(model.predict)
    val acc = preds.zip(ys).count { case (p, y) => (p > 0) == y }.toDouble / xs.length
    assert(acc > 0.9, s"train accuracy too low: $acc")
  }
  test("random forest importances favor the informative feature") {
    val (xs, ys) = separableData(400, 8)
    val targets = ys.map(b => if (b) 1.0 else -1.0)
    val model = RandomForest.train(xs, targets, nTrees = 30, seed = 9)
    assert(model.importances(0) > model.importances(1))
    assert(model.importances(0) > model.importances(2))
    assert(math.abs(model.importances.sum - 1.0) < 1e-9)
  }
  test("random forest predicts constant target exactly") {
    val xs = Array.fill(50)(Array(1.0, 2.0))
    val model = RandomForest.train(xs, Array.fill(50)(0.5), nTrees = 5, seed = 10)
    assert(math.abs(model.predict(Array(1.0, 2.0)) - 0.5) < 1e-9)
  }

  // ---- aggregators ---------------------------------------------------------------
  test("trained aggregators separate a synthetic pair task") {
    val (xs, ys) = separableData(300, 11)
    val combined = Aggregators.train(xs, ys, Array(0, 1, 2), seed = 12)
    def acc(a: Aggregator): Double =
      xs.zip(ys).count { case (f, y) => (a.normScore(f) > 0) == y }.toDouble / xs.length
    assert(acc(combined.wa) > 0.85, s"weighted average too weak: ${acc(combined.wa)}")
    assert(acc(combined.rf) > 0.85, s"forest too weak: ${acc(combined.rf)}")
    assert(acc(combined) > 0.85, s"combined too weak: ${acc(combined)}")
  }
  test("weighted-average normScore is in [-1,1] and monotone around threshold") {
    val wa = WeightedAvgAgg(Array(1.0), Array(0), 0.6)
    assert(wa.normScore(Array(0.6)) == 0.0)
    assert(wa.normScore(Array(1.0)) == 1.0)
    assert(wa.normScore(Array(0.0)) == -1.0)
    assert(wa.normScore(Array(0.8)) > 0.0)
    assert(wa.normScore(Array(0.4)) < 0.0)
  }
  test("combined aggregator importances average both parts") {
    val (xs, ys) = separableData(200, 13)
    val combined = Aggregators.train(xs, ys, Array(0, 1, 2), seed = 14)
    assert(combined.importances.length == 3)
    assert(combined.importances.forall(i => i >= 0.0 && i <= 1.0))
  }
  test("f1 helper computes the harmonic mean of P and R") {
    val preds = Array(true, true, false, false)
    val labels = Array(true, false, true, false)
    // tp=1 fp=1 fn=1 -> P=R=0.5 -> F1=0.5
    assert(math.abs(Aggregators.f1(preds, labels) - 0.5) < 1e-12)
  }
}
