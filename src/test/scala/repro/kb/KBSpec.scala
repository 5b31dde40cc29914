package repro.kb

import repro.{Oracle, SparkSpec, TestWorld}
import repro.world.Schemas

/** Tests for the KnowledgeBase model and its profiling queries (paper
  * Tables 1-2). The aggregations are checked against DuckDB.
  */
class KBSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  lazy val kb = ctx.kb

  test("classProfile matches DuckDB (Table 1 query)") {
    import spark.implicits._
    val df = kb.classProfile(Schemas.mainClasses)
      .select($"cls", $"instances".cast("string") as "instances",
              $"facts".cast("string") as "facts")
    Oracle.assertEquivalent(df,
      """SELECT i.cls AS cls,
        |       CAST(COUNT(DISTINCT i.uri) AS VARCHAR) AS instances,
        |       CAST(COUNT(f.uri) AS VARCHAR) AS facts
        |FROM instances i JOIN facts f ON i.uri = f.uri
        |WHERE i.cls IN ('GridironFootballPlayer','Song','Settlement')
        |GROUP BY i.cls""".stripMargin,
      "instances" -> kb.instances.select($"uri", $"cls"),
      "facts" -> kb.facts.select($"uri", $"property"))
  }

  test("densityProfile matches DuckDB (Table 2 query)") {
    import spark.implicits._
    val df = kb.densityProfile(Seq(Schemas.GFPlayer))
      .select($"cls", $"property", $"facts".cast("string") as "facts",
              format_number($"density", 2) as "density")
    Oracle.assertEquivalent(df,
      """WITH tot AS (SELECT cls, COUNT(*) AS n FROM instances
        |             WHERE cls = 'GridironFootballPlayer' GROUP BY cls)
        |SELECT i.cls AS cls, f.property AS property,
        |       CAST(COUNT(*) AS VARCHAR) AS facts,
        |       printf('%.2f', ROUND(COUNT(*) * 100.0 / MAX(tot.n), 2)) AS density
        |FROM instances i JOIN facts f ON i.uri = f.uri JOIN tot ON tot.cls = i.cls
        |WHERE i.cls = 'GridironFootballPlayer'
        |GROUP BY i.cls, f.property""".stripMargin,
      "instances" -> kb.instances.select($"uri", $"cls"),
      "facts" -> kb.facts.select($"uri", $"property"))
  }

  test("schema lookup by class exposes the paper's properties") {
    val props = kb.schemaByClass(Schemas.GFPlayer).keySet
    assert(props.contains("birthDate") && props.contains("draftPick"))
    assert(kb.schemaByClass(Schemas.Song)("runtime") == repro.core.DataType.Quantity)
  }

  test("localSnapshot carries labels, facts and a bag-of-words") {
    val snap = kb.localSnapshot(Schemas.Settlement)
    assert(snap.nonEmpty)
    snap.take(20).foreach { i =>
      assert(i.labels.nonEmpty)
      assert(i.bow.nonEmpty)
    }
  }

  test("factIndex holds every fact exactly once") {
    assert(kb.factIndex.values.map(_.size).sum == kb.factsSeq.size)
    kb.factsSeq.foreach(f => assert(kb.factIndex(f.uri)(f.property) == f.value))
  }

  test("facts repeating a (uri, property) pair are rejected, naming the pair") {
    val f = KBFact("kb:Song/1", "genre", "rock")
    val e = intercept[IllegalArgumentException] {
      new KnowledgeBase(spark, Nil, Seq(f, KBFact("kb:Song/2", "genre", "rock"), f.copy(value = "jazz")), Nil)
    }
    assert(e.getMessage.contains("(kb:Song/1, genre)"))
  }

  test("classParents exposes the hierarchy") {
    assert(kb.classParents(Schemas.GFPlayer).contains("Agent"))
    assert(kb.classParents(Schemas.Settlement).contains("Place"))
  }

  private def format_number(c: org.apache.spark.sql.Column, d: Int) =
    org.apache.spark.sql.functions.format_number(c, d)
}
