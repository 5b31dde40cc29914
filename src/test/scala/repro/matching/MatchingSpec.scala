package repro.matching

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestWorld}
import repro.core.DataType
import repro.world.Schemas

/** Integration tests for the schema-matching stages over the shared test
  * world: data-type detection, label attribute detection, table-to-class
  * matching, and attribute-to-property matching.
  */
class MatchingSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  import spark.implicits._

  // ---- data type detection ----------------------------------------------------
  test("cellType classifies dates, quantities and text") {
    assert(TypeDetector.cellType("1987-03-12") == DataType.Date.name)
    assert(TypeDetector.cellType("March 12, 1987") == DataType.Date.name)
    assert(TypeDetector.cellType("12,345") == DataType.Quantity.name)
    assert(TypeDetector.cellType("85 kg") == DataType.Quantity.name)
    assert(TypeDetector.cellType("springfield") == DataType.Text.name)
  }

  test("detected column types are mostly correct vs generation truth") {
    val detected = ctx.pipe.detectedTypes.collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> r.getString(2)).toMap
    val expected = ctx.corpus.colTruth.filter(_.property.nonEmpty).map { ct =>
      val cls = ctx.corpus.tableClassTruth(ct.tableId)
      val dt = Schemas.propDefs(cls).find(_.property == ct.property).get.dt
      val det = dt match {
        case DataType.Date => DataType.Date.name
        case DataType.Quantity | DataType.NominalInt => DataType.Quantity.name
        // draft years etc. render as bare years -> date is also acceptable
        case _ => DataType.Text.name
      }
      ((ct.tableId, ct.colId), det, dt)
    }
    val checked = expected.flatMap { case (k, want, dt) =>
      detected.get(k).map { got =>
        val ok = got == want ||
          (dt == DataType.Date && got == DataType.Quantity.name) ||
          (dt == DataType.NominalInt && got == DataType.Date.name) ||
          (dt == DataType.Quantity && got == DataType.Date.name)
        ok
      }
    }
    val acc = checked.count(identity).toDouble / checked.size
    assert(acc > 0.9, s"type detection accuracy $acc")
  }

  // ---- label attribute detection ------------------------------------------------
  test("label attribute detection finds the true label column in most tables") {
    val detected = ctx.pipe.labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val truth = ctx.corpus.colTruth.filter(_.isLabel).map(ct => ct.tableId -> ct.colId).toMap
    val joint = truth.keys.filter(detected.contains)
    val acc = joint.count(t => detected(t) == truth(t)).toDouble / joint.size
    assert(acc > 0.85, s"label column accuracy $acc")
  }

  // ---- table-to-class matching ----------------------------------------------------
  test("table-to-class matching is mostly correct on main-class tables") {
    val predicted = ctx.pipe.tableClass.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val mainTables = ctx.corpus.tableClassTruth.filter(t => Schemas.mainClasses.contains(t._2))
    val checked = mainTables.toSeq.flatMap { case (t, cls) => predicted.get(t).map(_ == cls) }
    val acc = checked.count(identity).toDouble / checked.size
    assert(acc > 0.8, s"table-class accuracy $acc (paper reports 0.97 at corpus scale)")
    assert(checked.size.toDouble / mainTables.size > 0.8, "most tables must receive a class")
  }

  test("row candidates include the true instance for existing entities") {
    val cands = ctx.pipe.rowCands
      .select($"tableId", $"rowId", $"uri").collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> r.getString(2))
      .groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2).toSet }
    val existingRows = ctx.corpus.rowTruth.filter(r => !r.isNew && r.uri.nonEmpty)
    val hit = existingRows.count(r => cands.getOrElse((r.tableId, r.rowId), Set.empty).contains(r.uri))
    val recall = hit.toDouble / existingRows.size
    assert(recall > 0.6, s"candidate recall $recall")
  }

  // ---- attribute-to-property matching ------------------------------------------------
  test("iteration-1 attribute matching clears a minimum F1 on gold tables") {
    val corr = ctx.corr1.toSeq.map { case (ck, (p, _)) => ((ck / 1000L, (ck % 1000L).toInt), p) }
    val (pr, rc, f1) = AttributeMatcher.evaluate(corr, ctx.goldAttrMap, ctx.gold.tableIds)
    assert(f1 > 0.5, s"iteration-1 attr F1 too low: P=$pr R=$rc F1=$f1")
    assert(pr > 0.6, s"iteration-1 attr precision too low: $pr")
  }

  test("candidate types block by detected type") {
    assert(AttributeMatcher.candidateTypes("text").contains(DataType.InstanceRef.name))
    assert(!AttributeMatcher.candidateTypes("text").contains(DataType.Quantity.name))
    assert(AttributeMatcher.candidateTypes("quantity") ==
      Seq(DataType.Quantity.name, DataType.NominalInt.name))
    assert(AttributeMatcher.candidateTypes("date").contains(DataType.Date.name))
  }

  test("KB-Overlap profiles fit values of the right property") {
    val profiles = AttributeMatcher.buildPropProfiles(ctx.kb)
    val heightProfile = profiles((Schemas.GFPlayer, "height"))
    assert(AttributeMatcher.overlapFit(heightProfile, "72") == 1.0)
    assert(AttributeMatcher.overlapFit(heightProfile, "5000") == 0.0)
    val posProfile = profiles((Schemas.GFPlayer, "position"))
    assert(AttributeMatcher.overlapFit(posProfile, "QB") == 1.0)
    assert(AttributeMatcher.overlapFit(posProfile, "zz") == 0.0)
  }

  test("Keys round-trip table/row/col identifiers") {
    assert(Keys.rowKey(42L, 7) == 4200007L)
    assert(Keys.colKey(42L, 3) == 42003L)
  }
}
