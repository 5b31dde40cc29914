package repro.clustering

import org.apache.spark.sql.functions.explode
import repro.{Oracle, SparkSpec, TestWorld}
import repro.core.{TextSim, Values}
import repro.matching.Keys
import repro.world.Schemas

/** The row-profile base checked against independent references: a plain-
  * Scala build from the corpus for every field but PHI, DuckDB for the
  * implicit attributes, and a hand-computed example for PHI.
  */
class RowProfilesSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  lazy val pipe = ctx.pipe
  lazy val cls = Schemas.GFPlayer
  import spark.implicits._

  private def baseOf(c: String) = RowProfiles.base(spark, c, pipe.cells, pipe.labelCols,
    pipe.classTables(c), pipe.rowCands, pipe.kb)
  lazy val got: Seq[RowBase] = baseOf(cls).collect().toSeq
  lazy val tables: Set[Long] = pipe.classTables(cls).as[Long].collect().toSet

  test("every field but PHI equals a plain-Scala build from the corpus") {
    val labelCol = pipe.labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val rows = ctx.corpus.cells.filter(c => tables(c.tableId)).groupBy(c => (c.tableId, c.rowId))
    val nRows = rows.keys.toSeq.groupMapReduce(_._1)(_ => 1)(_ + _)
    val cands = pipe.rowCands.select("tableId", "rowId", "uri").as[(Long, Int, String)]
      .collect().toSeq.filter(c => tables(c._1))
    val support = cands.flatMap { case (t, r, uri) =>
      ctx.kb.factIndex.getOrElse(uri, Map.empty[String, String]).toSeq
        .map { case (p, v) => (t, p + RowProfiles.Sep + Values.normalize(v), r) }
    }.distinct.groupMapReduce(x => (x._1, x._2))(_ => 1)(_ + _)
    val implicitOf = support.toSeq
      .map { case ((t, combo), k) => (t, combo, k.toDouble / nRows(t)) }
      .filter(_._3 >= RowProfiles.implicitThreshold)
      .groupMap(_._1)(x => x._2 -> x._3).map { case (t, xs) => t -> xs.toMap }
    val expected = rows.map { case ((t, r), cs) =>
      val cells = cs.sortBy(_.colId).map(c => (c.colId, c.raw))
      val label = cells.find(_._1 == labelCol(t)).map(_._2).getOrElse("")
      RowBase(Keys.rowKey(t, r), t, cls, label, Values.normalize(label),
              cells.flatMap(c => TextSim.tokenize(c._2)).distinct.sorted, Map.empty,
              implicitOf.getOrElse(t, Map.empty), cells)
    }.map(b => b.rowKey -> b).toMap

    assert(got.size == expected.size && got.map(_.rowKey).toSet == expected.keySet)
    assert(got.exists(_.implicitAtts.nonEmpty), "no implicit attributes: the check above is empty")
    got.foreach(b => assert(b.copy(phi = Map.empty) == expected(b.rowKey), s"row ${b.rowKey}"))
  }

  test("implicit attributes match DuckDB over the candidates' facts") {
    val classTables = pipe.classTables(cls)
    val trows = pipe.cells.join(classTables, "tableId").select("tableId", "rowId").distinct()
    val cands = pipe.rowCands.join(classTables, "tableId").select("tableId", "rowId", "uri")
    val facts = ctx.kb.factsSeq
      .map(f => (f.uri, f.property + RowProfiles.Sep + Values.normalize(f.value))).toDF("uri", "combo")
    val implicitAtts = baseOf(cls).select($"tableId", explode($"implicitAtts"))
      .toDF("tableId", "combo", "score").distinct()
    assert(implicitAtts.count() > 0)
    Oracle.assertEquivalent(implicitAtts,
      """SELECT s.tableId AS tableId, s.combo AS combo, CAST(s.cnt AS DOUBLE) / n.nRows AS score
        |FROM (SELECT c.tableId, f.combo, COUNT(DISTINCT c.rowId) AS cnt
        |      FROM cands c JOIN facts f ON c.uri = f.uri GROUP BY c.tableId, f.combo) s
        |JOIN (SELECT tableId, COUNT(*) AS nRows FROM trows GROUP BY tableId) n
        |  ON s.tableId = n.tableId
        |WHERE CAST(s.cnt AS DOUBLE) / n.nRows >= 0.5""".stripMargin,
      "trows" -> trows, "cands" -> cands, "facts" -> facts)
  }

  test("tablePhi on a hand-built example: n counts every label, ties at the cap go by label order") {
    // labels in order: "" (0), a (1), b (2), x00..x40 (3..43); n = 44
    val xs = (0 to 40).map(i => f"x$i%02d")
    val phi = RowProfiles.tablePhi(
      (("a" +: xs).map(1L -> _) ++ Seq(2L -> "a", 2L -> "b", 3L -> "", 2L -> "b")).reverse)
    // a lies in two tables, every other label in one; each pair shares one table:
    // phi(a, .) = (44 - 2) / sqrt(2 * 42 * 43), phi(x, x') = (44 - 1) / 43 = 1
    val p = 42.0 / math.sqrt(2.0 * 42 * 43)
    def close(m: Map[Long, Double], want: Map[Long, Double]) =
      m.keySet == want.keySet && m.forall { case (k, v) => math.abs(v - want(k)) <= 1e-12 }
    // table 1 (42 labels): x_k gets p from a and 1 from each of the 40 other
    // x; its 41 equal entries lose the last (x40, id 43) to the cap
    assert(close(phi(1L), (3L to 42L).map(_ -> (p + 40) / 42).toMap), phi(1L))
    // table 2 (a, b): a from b, b from a, every x from a; 43 equal entries
    assert(close(phi(2L), (Seq(1L, 2L) ++ (3L to 40L)).map(_ -> p / 2).toMap), phi(2L))
    // table 3: the empty label co-occurs with nothing, yet counts in n
    assert(phi(3L).isEmpty)
    assert(phi.size == 3 && RowProfiles.phiCap == 40)
  }

  test("the base, PHI included, does not depend on the shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    val (few, many) = try {
      spark.conf.set(key, "8")
      val few = baseOf(cls).collect().sortBy(_.rowKey).toSeq
      spark.conf.set(key, "64")
      (few, baseOf(cls).collect().sortBy(_.rowKey).toSeq)
    } finally spark.conf.set(key, before)
    assert(few.exists(_.phi.nonEmpty))
    assert(few == many)
  }

  test("a class with no matched tables has an empty base and no pairs") {
    // every KB class of the test world has tables, so take a class it lacks
    val none = "Building"
    assert(pipe.classTables(none).count() == 0)
    assert(baseOf(none).count() == 0)
    val (pf, comps) = pipe.pairStage(pipe.profiles(none, Map.empty))
    assert(pf.count() == 0 && comps.isEmpty)
  }
}
