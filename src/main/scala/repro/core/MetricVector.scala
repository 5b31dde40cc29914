package repro.core

import repro.clustering.RowProfiles.Sep

/** Layout of a similarity feature vector shared by row clustering and new
  * detection: one score slot per metric, in `metricNames` order, and for
  * ATTRIBUTE and IMPLICIT_ATT a confidence slot right after the score. The
  * two value-agreement metrics are computed here for both.
  */
trait MetricVector {
  def metricNames: Seq[String]

  /** Feature indices (score, optional confidence) per metric. */
  lazy val metricIdx: Map[String, (Int, Option[Int])] =
    metricNames.foldLeft((0, Map.empty[String, (Int, Option[Int])])) { case ((i, acc), m) =>
      if (MetricVector.withConfidence(m)) (i + 2, acc + (m -> (i, Some(i + 1))))
      else (i + 1, acc + (m -> (i, None)))
    }._2
  lazy val dim: Int = metricNames.size + metricNames.count(MetricVector.withConfidence)

  /** Full-feature indices for an active metric subset (confidences included). */
  def featureIndices(metrics: Seq[String]): Array[Int] =
    metrics.flatMap { m => val (s, c) = metricIdx(m); s +: c.toSeq }.toArray.sorted

  /** Score-only indices (the weighted average ignores confidences). */
  def scoreIndices(metrics: Seq[String]): Array[Int] =
    metrics.map(m => metricIdx(m)._1).toArray.sorted

  /** ATTRIBUTE into `f(at)` / `f(at + 1)`: the share of properties valued on
    * both sides whose values are equal under the property's type, and the
    * number of such properties.
    */
  protected def attribute(x: Map[String, String], y: Map[String, String],
                          schema: Map[String, DataType], f: Array[Double], at: Int): Unit = {
    val shared = x.keySet.intersect(y.keySet)
    if (shared.nonEmpty) {
      val eq = shared.toSeq.map { p =>
        val dt = schema.getOrElse(p, DataType.Text)
        if (TypeSim.equal(dt, x(p), y(p))) 1.0 else 0.0
      }
      f(at) = eq.sum / eq.size
      f(at + 1) = eq.size.toDouble
    }
  }

  /** IMPLICIT_ATT into `f(at)` / `f(at + 1)`: each side's implicit
    * attributes ("property|value" -> weight) are compared with the value the
    * other side gives for the property; the score is the agreeing share of
    * the compared weight, the confidence the compared weight.
    */
  protected def implicitAtt(sides: Seq[(Map[String, Double], String => Option[String])],
                            schema: Map[String, DataType], f: Array[Double], at: Int): Unit = {
    var sum = 0.0; var weight = 0.0
    sides.foreach { case (implicitAtts, other) =>
      implicitAtts.foreach { case (combo, w) =>
        val i = combo.indexOf(Sep)
        if (i > 0) {
          val p = combo.substring(0, i); val v = combo.substring(i + 1)
          other(p).foreach { ov =>
            weight += w
            if (TypeSim.equal(schema.getOrElse(p, DataType.Text), v, ov)) sum += w
          }
        }
      }
    }
    if (weight > 0) { f(at) = sum / weight; f(at + 1) = weight }
  }
}

object MetricVector {
  /** Metrics whose score is followed by a confidence slot. */
  val withConfidence: Set[String] = Set("ATTRIBUTE", "IMPLICIT_ATT")
}
