package repro.clustering

import repro.core.{DataType, MetricVector, TextSim}

/** The six row-similarity metrics (paper Section 3.2) as one feature vector:
  *
  *   0 LABEL        Monge-Elkan(Levenshtein) on row labels
  *   1 BOW          cosine over binary term vectors of all row cells
  *   2 PHI          cosine over the tables' PHI label-correlation vectors
  *   3 ATTRIBUTE    avg type-equality over overlapping mapped values
  *   4   +conf      number of overlapping value pairs
  *   5 IMPLICIT_ATT weighted agreement of implicit/explicit property-values
  *   6   +conf      sum of compared implicit-attribute scores
  *   7 SAME_TABLE   0.0 when both rows share a table, else 1.0
  */
object RowSimilarity extends MetricVector {

  val metricNames: Seq[String] = Seq("LABEL", "BOW", "PHI", "ATTRIBUTE", "IMPLICIT_ATT", "SAME_TABLE")

  def features(a: RowProfile, b: RowProfile,
               schema: Map[String, DataType]): Array[Double] = {
    val f = new Array[Double](dim)
    f(0) = TextSim.mongeElkan(a.normLabel, b.normLabel)
    f(1) = TextSim.cosineBinary(a.tokens.toSet, b.tokens.toSet)
    f(2) = TextSim.cosineSparse(a.phi, b.phi)
    attribute(a.values, b.values, schema, f, 3)
    // each row's table-level combos are compared with the other row's mapped
    // value, else with the implicit value of the other row's table
    def valueOf(y: RowProfile): String => Option[String] = p =>
      y.values.get(p).orElse {
        y.implicitAtts.keysIterator.find(_.startsWith(p + RowProfiles.Sep))
          .map(_.substring(p.length + 1))
      }
    implicitAtt(Seq(a.implicitAtts -> valueOf(b), b.implicitAtts -> valueOf(a)), schema, f, 5)
    f(7) = if (a.tableId == b.tableId) 0.0 else 1.0
    f
  }
}
