package repro.matching

import repro.{Oracle, SparkSpec, TestWorld}
import repro.core.{Pipeline, TextSim, TypeSim, Values}
import repro.kb.{KBFact, KBInstance, KnowledgeBase, LabelIndex, PropertySpec}
import repro.world.{TableCellRec, TableColumnRec}

/** Table-to-class matching checked against independent references: a
  * brute-force Scala computation of the row candidates, DuckDB for the class
  * decision, and a hand-built corpus for the edge cases.
  */
class TableClassMatcherSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  import spark.implicits._

  private val candOrder = Ordering.Tuple5(Ordering.Long, Ordering.Int, Ordering.String,
                                          Ordering.String, Ordering.Double.TotalOrdering)

  private def labelColOf(pipe: Pipeline): Map[Long, Int] =
    pipe.labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap

  test("row candidates equal a brute-force reference over every KB label") {
    val kbLabels = ctx.kb.instancesSeq.flatMap { i =>
      (i.label +: i.altLabels).map(l => Values.normalize(l) -> (i.uri, i.cls))
    }
    val distinctLabels = kbLabels.map(_._1).distinct
    val df = distinctLabels.flatMap(TextSim.tokenize).groupBy(identity).map { case (t, xs) => t -> xs.size }
    val kept = df.collect { case (t, n) if n <= TableClassMatcher.maxKbTokenDf => t }.toSet
    val kbKept = distinctLabels.map(l => l -> TextSim.tokenize(l).filter(kept).toSet)

    val labelCol = labelColOf(ctx.pipe)
    val rows = ctx.corpus.cells.filter(c => labelCol.get(c.tableId).contains(c.colId))
      .map(c => (c.tableId, c.rowId, Values.normalize(c.raw)))
    val simsOf = rows.map(_._3).distinct.map { norm =>
      val toks = TextSim.tokenize(norm).toSet
      val sims = kbKept.collect { case (l, ks) if ks.exists(toks) => l -> TextSim.mongeElkan(norm, l) }
        .filter(_._2 >= TableClassMatcher.minLabelSim).toMap
      norm -> sims
    }.toMap
    val expected = rows.flatMap { case (t, r, norm) =>
      val sims = simsOf(norm)
      kbLabels.filter(kl => sims.contains(kl._1))
        .groupMapReduce(_._2)(kl => sims(kl._1))(math.max).toSeq
        .sortBy { case ((uri, _), sim) => (-sim, uri) }(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String))
        .take(TableClassMatcher.topKPerRow)
        .map { case ((uri, cls), sim) => (t, r, uri, cls, sim) }
    }.sorted(candOrder)

    val got = ctx.pipe.rowCands.as[(Long, Int, String, String, Double)].collect().toSeq
      .sorted(candOrder)
    assert(expected.nonEmpty)
    assert(got.size == expected.size)
    got.zip(expected).foreach { case (g, e) => assert(g == e) }
  }

  test("the class decision matches DuckDB over the candidates and their equal facts") {
    val labelCol = labelColOf(ctx.pipe)
    val cands = ctx.pipe.rowCands.as[(Long, Int, String, String, Double)].collect().toSeq
    val factsByUri = ctx.kb.factsSeq.groupBy(_.uri)
    val valueCells = ctx.corpus.cells.filter(c => labelCol.get(c.tableId).exists(_ != c.colId))
      .groupBy(c => (c.tableId, c.rowId))
    val matches = for {
      (t, r, uri, cls, _) <- cands
      f                   <- factsByUri.getOrElse(uri, Nil)
      dt                  <- ctx.kb.schema.find(p => p.cls == cls && p.property == f.property).map(_.dataType).toSeq
      c                   <- valueCells.getOrElse((t, r), Nil)
      if TypeSim.equal(dt, c.raw, f.value)
    } yield (t, r, c.colId, cls, f.property)
    assert(matches.nonEmpty)

    Oracle.assertEquivalent(ctx.pipe.tableClass,
      """WITH rs AS (SELECT tableId, cls, COUNT(DISTINCT rowId) AS rowScore
        |            FROM cands GROUP BY tableId, cls),
        |     cnt AS (SELECT tableId, cls, colId, property, COUNT(*) AS n
        |             FROM matches GROUP BY tableId, cls, colId, property),
        |     best AS (SELECT tableId, cls, colId, MAX(n) AS b FROM cnt GROUP BY tableId, cls, colId),
        |     attr AS (SELECT tableId, cls, SUM(b) AS a FROM best GROUP BY tableId, cls),
        |     scored AS (SELECT rs.tableId, rs.cls, rowScore + COALESCE(a, 0) AS score
        |                FROM rs LEFT JOIN attr ON rs.tableId = attr.tableId AND rs.cls = attr.cls),
        |     ranked AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY tableId ORDER BY score DESC, cls) AS rk
        |                FROM scored)
        |SELECT CAST(tableId AS BIGINT) AS tableId, cls, CAST(score AS BIGINT) AS score
        |FROM ranked WHERE rk = 1""".stripMargin,
      "cands" -> ctx.pipe.rowCands.select($"tableId", $"rowId", $"cls"),
      "matches" -> matches.toDF("tableId", "rowId", "colId", "cls", "property"))
  }

  test("label index: repeated tokens count toward df, labels keep distinct instances") {
    val idx = LabelIndex.build(Seq(
      KBInstance("u1", "C", Nil, "New York", Seq("new york"), 1L),
      KBInstance("u2", "C", Nil, "York York", Nil, 1L)), maxTokenDf = 2)
    assert(idx.instances == Map("new york" -> Seq(("u1", "C")), "york york" -> Seq(("u2", "C"))))
    // "york" occurs three times over the two labels, "new" once
    assert(idx.postings == Map("new" -> Seq("new york")))
    assert(idx.candidates(Seq("york", "new", "new")).toSeq == Seq("new york"))
  }

  test("hand-built corpus: no text column, no candidate, ties and attribute scores") {
    val kb = new KnowledgeBase(spark,
      Seq(KBInstance("kb:a", "Zed", Nil, "Alpha Beta", Nil, 1L),
          KBInstance("kb:b", "Able", Nil, "alpha beta", Nil, 1L),
          KBInstance("kb:c", "Zed", Nil, "Gamma Delta", Nil, 1L),
          KBInstance("kb:d", "Able", Nil, "Gamma Delta", Nil, 1L)),
      Seq(KBFact("kb:c", "height", "72"), KBFact("kb:d", "height", "80")),
      Seq(PropertySpec("Zed", "height", "quantity"), PropertySpec("Able", "height", "quantity")))
    val cells = Seq(
      // table 1: numbers and dates only, so no label column
      TableCellRec(1, 0, 0, "12"), TableCellRec(1, 0, 1, "1987-03-12"),
      TableCellRec(1, 1, 0, "15"), TableCellRec(1, 1, 1, "1990-01-02"),
      // table 2: labels without a KB candidate
      TableCellRec(2, 0, 0, "zzqx wwvy"), TableCellRec(2, 1, 0, "qqpl mmno"),
      // table 3: one row matches one instance of each class equally well
      TableCellRec(3, 0, 0, "Alpha Beta"), TableCellRec(3, 1, 0, "epsilon"),
      // table 4: the height column agrees with the Zed instance only
      TableCellRec(4, 0, 0, "gamma delta"), TableCellRec(4, 0, 1, "72"))
    val columns = cells.map(c => TableColumnRec(c.tableId, c.colId, s"h${c.colId}")).distinct
    val pipe = new Pipeline(spark, kb, cells.toDF(), columns.toDF(), Map.empty)

    assert(labelColOf(pipe) == Map(2L -> 0, 3L -> 0, 4L -> 0))
    assert(pipe.tableClass.schema.map(f => f.name -> f.dataType.simpleString) ==
      Seq("tableId" -> "bigint", "cls" -> "string", "score" -> "bigint"))
    assert(pipe.rowCands.schema.map(f => f.name -> f.dataType.simpleString) ==
      Seq("tableId" -> "bigint", "rowId" -> "int", "uri" -> "string", "cls" -> "string",
          "labelSim" -> "double"))
    assert(pipe.tableClass.as[(Long, String, Long)].collect().sorted.toSeq ==
      Seq((3L, "Able", 1L), (4L, "Zed", 2L)))
    assert(pipe.rowCands.as[(Long, Int, String, String, Double)].collect().toSeq.sorted(candOrder) ==
      Seq((3L, 0, "kb:a", "Zed", 1.0), (3L, 0, "kb:b", "Able", 1.0),
          (4L, 0, "kb:c", "Zed", 1.0), (4L, 0, "kb:d", "Able", 1.0)))
  }
}
