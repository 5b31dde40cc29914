package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.fusion.Entity
import repro.newdetect.{DetectedExisting, DetectedNew, Undecided}

/** `ClassRun.prior`: what one iteration hands to the next iteration's
  * schema matching.
  */
class ClassRunSpec extends AnyFunSuite {

  private def entity(key: Long, rows: Seq[Long]) =
    Entity(key, "Song", Seq(s"e$key"), rows, Seq.empty, Map.empty, Map.empty)

  private val run = ClassRun("Song",
    attrCorr = Map(1001L -> ("runtime", 0.9), 2003L -> ("genre", 0.4)),
    clusters = Map(1L -> 1L, 2L -> 1L, 100003L -> 1L, 4L -> 4L, 5L -> 5L, 6L -> 5L,
                   7L -> 7L, 8L -> 8L, 200009L -> 8L),
    entities = Seq(entity(1, Seq(1L, 2L, 100003L)), entity(4, Seq(4L)), entity(5, Seq(5L, 6L)),
                   entity(7, Seq(7L)), entity(8, Seq(8L, 200009L))),
    // entity 7 has no detection
    detections = Map(1L -> DetectedExisting("kb:a", 0.8), 4L -> DetectedNew,
                     5L -> Undecided, 8L -> DetectedExisting("kb:b", 0.5)),
    profiles = Nil)

  test("prior: rowInstance covers every row of the existing entities and no other row") {
    assert(run.prior.rowInstance ==
      Map(1L -> "kb:a", 2L -> "kb:a", 100003L -> "kb:a", 8L -> "kb:b", 200009L -> "kb:b"))
  }

  test("prior: prelimAttr is the property of each correspondence, rowCluster the clusters") {
    assert(run.prior.prelimAttr == Map(1001L -> "runtime", 2003L -> "genre"))
    assert(run.prior.rowCluster == run.clusters)
  }
}
