package repro.world

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Values

/** Unit tests for the deterministic world / corpus / gold generators. */
class WorldSpec extends AnyFunSuite {
  lazy val cfg = WorldConfig.test()
  lazy val world = SynthWorld.generate(cfg)
  lazy val corpusCfg = CorpusConfig.test()
  lazy val corpus = SynthCorpus.generate(world, corpusCfg)

  test("generation is deterministic in the seed") {
    val again = SynthWorld.generate(WorldConfig.test())
    assert(again.entities == world.entities)
    assert(again.kbFacts == world.kbFacts)
    val corpusAgain = SynthCorpus.generate(again, CorpusConfig.test())
    assert(corpusAgain.cells == corpus.cells)
    assert(corpusAgain.gold.clusters == corpus.gold.clusters)
  }
  test("different seeds change the world") {
    val other = SynthWorld.generate(WorldConfig.test(seed = 99))
    assert(other.entities != world.entities)
  }

  test("every entity has truth values for all class properties") {
    world.entities.foreach { e =>
      val props = Schemas.propDefs(e.cls).map(_.property).toSet
      assert(e.truth.keySet == props, s"entity ${e.entityId} of ${e.cls}")
    }
  }
  test("KB coverage is close to the configured rate") {
    cfg.classes.filter(_.nEntities >= 200).foreach { cc =>
      val es = world.entitiesOf(cc.cls)
      val cov = es.count(_.inKB).toDouble / es.size
      assert(math.abs(cov - cc.kbCoverage) < 0.12, s"${cc.cls}: coverage $cov vs ${cc.kbCoverage}")
    }
  }
  test("KB facts respect per-property densities (within noise)") {
    val kbPlayers = world.entitiesOf(Schemas.GFPlayer).filter(_.inKB)
    val facts = world.kbFacts.groupBy(_.property)
    val birthDateDensity = facts.getOrElse("birthDate", Nil)
      .count(f => f.uri.contains(Schemas.GFPlayer)).toDouble / kbPlayers.size
    assert(birthDateDensity > 0.85, s"birthDate density $birthDateDensity should be ~0.97")
    val draftYearDensity = facts.getOrElse("draftYear", Nil)
      .count(f => f.uri.contains(Schemas.GFPlayer)).toDouble / kbPlayers.size
    assert(draftYearDensity < 0.6, s"draftYear density $draftYearDensity should be ~0.38")
  }
  test("homonyms exist for the Song class") {
    val songs = world.entitiesOf(Schemas.Song)
    val dupLabels = songs.groupBy(_.label).count(_._2.size > 1)
    assert(dupLabels > 0, "Song class must contain homonym groups")
  }
  test("popularity is only assigned to KB entities and is skewed") {
    assert(world.entities.filterNot(_.inKB).forall(_.popularity == 0L))
    val pops = world.entities.filter(_.inKB).map(_.popularity)
    assert(pops.max > pops.min * 10, "popularity should be zipf-skewed")
  }

  // ---- corpus ---------------------------------------------------------------
  test("tables have a label column and cells reference declared columns") {
    val colsByTable = corpus.columns.groupBy(_.tableId)
    corpus.colTruth.groupBy(_.tableId).foreach { case (t, cts) =>
      assert(cts.count(_.isLabel) == 1, s"table $t must have exactly one label column")
    }
    corpus.cells.foreach { c =>
      assert(colsByTable(c.tableId).exists(_.colId == c.colId))
    }
  }
  test("rows within a table describe distinct entities (SAME_TABLE premise)") {
    corpus.rowTruth.groupBy(_.tableId).foreach { case (t, rows) =>
      assert(rows.map(_.entityId).distinct.size == rows.size, s"table $t repeats an entity")
    }
  }
  test("table class truth covers every table") {
    val ids = corpus.columns.map(_.tableId).toSet
    assert(ids.subsetOf(corpus.tableClassTruth.keySet))
  }
  test("column property truth matches the class schema") {
    corpus.colTruth.filter(_.property.nonEmpty).foreach { ct =>
      val cls = corpus.tableClassTruth(ct.tableId)
      assert(Schemas.propDefs(cls).exists(_.property == ct.property))
    }
  }

  // ---- gold standard ---------------------------------------------------------
  test("gold cluster counts match the corpus config") {
    corpusCfg.perClass.filter(c => c.goldExisting + c.goldNew > 0).foreach { cc =>
      val cs = corpus.gold.clusters.filter(_.cls == cc.cls)
      assert(cs.count(!_.isNew) == cc.goldExisting, s"${cc.cls} existing")
      assert(cs.count(_.isNew) == cc.goldNew, s"${cc.cls} new")
    }
  }
  test("every gold row belongs to a gold cluster and a gold table") {
    corpus.gold.rows.foreach { r =>
      assert(corpus.gold.clusterById.contains(r.entityId))
      assert(corpus.gold.tableIds.contains(r.tableId))
    }
  }
  test("gold clusters average a plausible number of rows (paper: 3.42)") {
    val sizes = corpus.gold.rows.groupBy(_.entityId).map(_._2.size)
    val avg = sizes.sum.toDouble / sizes.size
    assert(avg > 2.0 && avg < 5.0, s"avg cluster size $avg")
  }
  test("new gold clusters have no URI; existing ones do") {
    corpus.gold.clusters.foreach { c =>
      if (c.isNew) assert(c.uri.isEmpty) else assert(c.uri.nonEmpty)
    }
  }
  test("gold facts carry the entity truth value") {
    corpus.gold.facts.foreach { f =>
      assert(world.entityById(f.entityId).truth(f.property) == f.value)
    }
  }
  test("some gold facts are present in tables, some are not") {
    assert(corpus.gold.facts.exists(_.presentInTables))
    assert(corpus.gold.facts.exists(!_.presentInTables))
  }

  // ---- folds -----------------------------------------------------------------
  test("folds partition the gold clusters") {
    val folds = corpus.gold.folds(world)
    val all = folds.flatten
    assert(all.distinct.size == all.size)
    assert(all.toSet == corpus.gold.clusters.map(_.entityId).toSet)
  }
  test("folds keep homonym groups together") {
    val folds = corpus.gold.folds(world)
    val foldOf = folds.zipWithIndex.flatMap { case (f, i) => f.map(_ -> i) }.toMap
    corpus.gold.clusters.groupBy(c => (c.cls, Values.normalize(world.entityById(c.entityId).label)))
      .values.filter(_.size > 1).foreach { grp =>
        assert(grp.map(c => foldOf(c.entityId)).distinct.size == 1,
          s"homonym group ${grp.map(_.entityId)} split across folds")
      }
  }
  test("folds spread new clusters roughly evenly") {
    val folds = corpus.gold.folds(world)
    val newCounts = folds.map(_.count(id => corpus.gold.clusterById(id).isNew))
    assert(newCounts.max - newCounts.min <= math.max(2, newCounts.max / 2),
      s"new clusters unevenly split: $newCounts")
  }

  test("corpus rejects row and column ids the keys cannot pack, naming table and id") {
    import repro.matching.Keys
    val t = corpus.cells.head.tableId
    val bad = Seq(
      TableCellRec(t, Keys.maxRowsPerTable, 0, "x") -> s"rowId ${Keys.maxRowsPerTable}",
      TableCellRec(t, -1, 0, "x")                   -> "rowId -1",
      TableCellRec(t, 0, Keys.maxColsPerTable, "x") -> s"colId ${Keys.maxColsPerTable}",
      TableCellRec(t, 0, -2, "x")                   -> "colId -2")
    bad.foreach { case (cell, id) =>
      val e = intercept[IllegalArgumentException](corpus.copy(cells = corpus.cells :+ cell))
      assert(e.getMessage.contains(s"table $t") && e.getMessage.contains(id), e.getMessage)
    }
    val edge = TableCellRec(t, Keys.maxRowsPerTable - 1, Keys.maxColsPerTable - 1, "x")
    assert(corpus.copy(cells = corpus.cells :+ edge).cells.last == edge)
    // the largest ids keep keys of neighbouring tables apart
    assert(Keys.rowKey(t, Keys.maxRowsPerTable - 1) < Keys.rowKey(t + 1, 0))
    assert(Keys.colKey(t, Keys.maxColsPerTable - 1) < Keys.colKey(t + 1, 0))
  }

  // ---- renderers --------------------------------------------------------------
  test("render produces parseable date variants") {
    val r = new scala.util.Random(1)
    (0 until 20).foreach { _ =>
      val s = SynthCorpus.render(repro.core.DataType.Date, "1987-03-12", r)
      assert(Values.parseDate(s).contains((1987, 3, 12)), s"unparseable: $s")
    }
  }
  test("render produces parseable quantity variants") {
    val r = new scala.util.Random(2)
    (0 until 20).foreach { _ =>
      val s = SynthCorpus.render(repro.core.DataType.Quantity, "123456", r)
      assert(Values.parseQuantity(s).contains(123456.0), s"unparseable: $s")
    }
  }
  test("perturbLabel keeps labels recognizable") {
    val r = new scala.util.Random(3)
    (0 until 50).foreach { _ =>
      val p = SynthCorpus.perturbLabel("james johnson", r, 1.0)
      assert(repro.core.TextSim.mongeElkan("james johnson", p.toLowerCase) > 0.5, s"too destructive: $p")
    }
  }
  test("perturbLabel leaves labels alone at probability 0") {
    val r = new scala.util.Random(4)
    assert(SynthCorpus.perturbLabel("james johnson", r, 0.0) == "james johnson")
  }
}
