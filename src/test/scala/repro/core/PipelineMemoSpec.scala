package repro.core

import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestWorld}
import repro.clustering.{Blocking, PairFeatures, RowProfile, RowProfiles}
import repro.matching.Keys
import repro.world.Schemas

/** The per-class memos of `Pipeline` (profile base, blocking) must give the
  * same profiles, pair features and components as a fresh build under
  * whichever mapping is asked for, on the shared test world (GF-Player).
  */
class PipelineMemoSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  lazy val pipe = ctx.pipe
  lazy val cls = Schemas.GFPlayer
  lazy val m1: Map[Long, String] = ctx.corr1.map { case (k, v) => k -> v._1 }
  /** A second mapping: every other column of m1 dropped. */
  lazy val m2: Map[Long, String] = m1.toSeq.sortBy(_._1).zipWithIndex
    .collect { case (kv, i) if i % 2 == 0 => kv }.toMap

  /** Profiles under m2, asked for after profiles under m1. */
  lazy val memo: Seq[RowProfile] = {
    pipe.profiles(cls, m1).count()
    pipe.profiles(cls, m2).collect().toSeq
  }
  /** The same profiles built without the pipeline's memos. */
  lazy val freshDS: Dataset[RowProfile] = RowProfiles.withValues(spark,
    RowProfiles.base(spark, cls, pipe.cells, pipe.labelCols, pipe.classTables(cls),
                     pipe.rowCands, pipe.kb),
    m2)

  test("profiles under a second mapping equal a fresh build, field by field") {
    val fresh = freshDS.collect().map(p => p.rowKey -> p).toMap
    assert(memo.nonEmpty)
    assert(memo.map(_.rowKey).toSet == fresh.keySet)
    memo.foreach(p => assert(p == fresh(p.rowKey), s"row ${p.rowKey}"))
  }

  test("profile values follow the mapping asked for") {
    import spark.implicits._
    val mapped = pipe.cells.select("tableId", "rowId", "colId", "raw")
      .as[(Long, Int, Int, String)].collect().toSeq
      .flatMap { case (t, r, c, raw) => m2.get(Keys.colKey(t, c)).map(p => (Keys.rowKey(t, r), p, raw)) }
      .groupBy(_._1).map { case (rk, xs) => rk -> xs.map(x => (x._2, x._3)).toSet }
    memo.foreach { p =>
      val expected = mapped.getOrElse(p.rowKey, Set.empty)
      assert(p.values.keySet == expected.map(_._1), s"row ${p.rowKey}")
      assert(p.values.forall(expected.contains), s"row ${p.rowKey}")
      assert(p.valueCols.forall { case (prop, ck) => m2.get(ck).contains(prop) }, s"row ${p.rowKey}")
    }
    val underM1 = ctx.profiles1(cls).map(p => p.rowKey -> p.values).toMap
    assert(memo.exists(p => p.values != underM1(p.rowKey)),
      "m1 and m2 give the same values: the check above would not catch stale values")
  }

  test("pair features and components equal a fresh computation") {
    pipe.pairStage(pipe.profiles(cls, m1))
    val (pf, comps) = pipe.pairStage(pipe.profiles(cls, m2))
    val freshDF = freshDS.toDF()
    val blocks = Blocking.rowBlocks(spark, freshDF)
    val freshPf = PairFeatures.compute(spark, freshDS, Blocking.candidatePairs(spark, blocks), ctx.schema)
    val freshComps = Blocking.components(
      blocks.collect().map(r => (r.getLong(0), r.getString(1))).toSeq,
      freshDS.collect().map(_.rowKey).toSeq)
    assert(comps == freshComps)

    val got = pf.collect().map(p => (p.a, p.b) -> p.features).toMap
    val want = freshPf.collect().map(p => (p.a, p.b) -> p.features).toMap
    assert(got.nonEmpty)
    assert(got.keySet == want.keySet)
    got.foreach { case (k, f) =>
      assert(f.zip(want(k)).forall { case (x, y) => math.abs(x - y) <= 1e-9 },
        s"pair $k: $f vs ${want(k)}")
    }
  }

  test("pairStage rejects anything but all rows of one class") {
    import spark.implicits._
    val prof = pipe.profiles(cls, m1)
    val subset = intercept[IllegalArgumentException](pipe.pairStage(prof.filter(_.rowKey % 2 == 0)))
    assert(subset.getMessage.contains(s"rows of class $cls"))
    val twice = intercept[IllegalArgumentException](pipe.pairStage(prof.union(prof.limit(1))))
    assert(twice.getMessage.contains(s"rows of class $cls"))
    val mixed = intercept[IllegalArgumentException](pipe.pairStage(
      prof.map(p => if (p.rowKey % 2 == 0) p.copy(cls = Schemas.Song) else p)))
    assert(mixed.getMessage.contains("one class") && mixed.getMessage.contains(Schemas.Song))
  }

  test("pairStage of no rows gives no pairs and no components") {
    val (pf, comps) = pipe.pairStage(pipe.profiles(cls, m1).filter(_ => false))
    assert(pf.count() == 0 && comps.isEmpty)
  }
}
