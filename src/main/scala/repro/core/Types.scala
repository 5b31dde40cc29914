package repro.core

import scala.util.matching.Regex

/** The six data types of the paper (Section 3.1), each with a similarity
  * function and an equivalence threshold used across the whole pipeline:
  * attribute-to-property blocking, ATTRIBUTE row similarity, value grouping
  * during fusion, and fact-correctness checks in the evaluation.
  */
sealed abstract class DataType(val name: String) extends Serializable
object DataType {
  /** Fuzzy string, e.g. an instance label. */
  case object Text extends DataType("text")
  /** Exact-match string, e.g. a postal code or a position acronym. */
  case object NominalString extends DataType("nominalString")
  /** Reference to another instance, compared by normalized label. */
  case object InstanceRef extends DataType("instanceRef")
  /** Date with day or year granularity. */
  case object Date extends DataType("date")
  /** Numeric quantity where closeness is meaningful (population, height). */
  case object Quantity extends DataType("quantity")
  /** Integer where closeness is NOT meaningful (jersey number, draft round). */
  case object NominalInt extends DataType("nominalInt")

  val all: Seq[DataType] = Seq(Text, NominalString, InstanceRef, Date, Quantity, NominalInt)
  def fromName(s: String): DataType = all.find(_.name == s).getOrElse(
    throw new IllegalArgumentException(s"unknown data type: $s"))

  /** The three *detectable* types assigned by the regex type detector; the
    * remaining three require semantics and are set after property matching.
    */
  val detectable: Seq[DataType] = Seq(Text, Date, Quantity)
}

/** Value normalization and parsing helpers shared by all components. */
object Values {
  private val months = Seq("jan", "feb", "mar", "apr", "may", "jun",
                           "jul", "aug", "sep", "oct", "nov", "dec")
  /** Date patterns in order of precedence, each with its (y, m, d) reader. */
  private val datePatterns: Seq[(Regex, Regex.Match => Option[(Int, Int, Int)])] = Seq(
    ("""^(\d{4})-(\d{1,2})-(\d{1,2})$""".r,
      m => Some((m.group(1).toInt, m.group(2).toInt, m.group(3).toInt))),
    ("""^(\d{1,2})/(\d{1,2})/(\d{4})$""".r,
      m => Some((m.group(3).toInt, m.group(1).toInt, m.group(2).toInt))),
    ("""^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]* (\d{1,2}),? (\d{4})$""".r,
      m => Some((m.group(3).toInt, months.indexOf(m.group(1)) + 1, m.group(2).toInt))),
    ("""^(\d{4})$""".r,
      m => Some(m.group(1).toInt).filter(y => y >= 1000 && y <= 2100).map(y => (y, 0, 0))),
  )

  private val spaceRun = """[\u00A0\s]+""".r
  private val leadingPunct = "\"'`(["
  private val trailingPunct = "\"'`)],."

  /** Lowercase, collapse whitespace, then strip surrounding whitespace,
    * control characters and punctuation in one pass, so that nothing
    * strippable is left at either end (normalize is idempotent).
    */
  def normalize(raw: String): String =
    if (raw == null) ""
    else {
      val s = spaceRun.replaceAllIn(raw.toLowerCase, " ")
      var i = 0
      var j = s.length
      while (i < j && (s.charAt(i) <= ' ' || leadingPunct.indexOf(s.charAt(i)) >= 0)) i += 1
      while (j > i && (s.charAt(j - 1) <= ' ' || trailingPunct.indexOf(s.charAt(j - 1)) >= 0)) j -= 1
      s.substring(i, j)
    }

  /** True when the string parses as a date under any accepted pattern. */
  def isDate(raw: String): Boolean = parseDate(raw).isDefined

  /** Parse to (year, month, day); month/day are 0 for year granularity. */
  def parseDate(raw: String): Option[(Int, Int, Int)] = {
    val s = normalize(raw)
    datePatterns.iterator
      .flatMap { case (p, read) => p.findFirstMatchIn(s).flatMap(read) }
      .nextOption()
  }

  private val unitSuffix = """\s*(m|kg|cm|km|ft|lb|lbs|in|people|s|sec|min)\.?$""".r

  /** Parse a quantity: strips thousand separators and trailing units. */
  def parseQuantity(raw: String): Option[Double] = {
    val s = unitSuffix.replaceAllIn(normalize(raw).replace(",", ""), "")
    try { if (s.isEmpty) None else Some(s.toDouble) }
    catch { case _: NumberFormatException => None }
  }

  def isQuantity(raw: String): Boolean = parseQuantity(raw).isDefined
}

/** Type-specific similarity with a per-type equivalence threshold. All
  * similarities are in [0,1]; `equal` applies the threshold.
  */
object TypeSim {
  /** Relative tolerance for quantities (paper: "a learned tolerance range";
    * we use a fixed 5% relative band, learned ranges gave the same results
    * on the synthetic gold standard).
    */
  val quantityTolerance = 0.05
  val textThreshold     = 0.85

  def sim(dt: DataType, a: String, b: String): Double = dt match {
    case DataType.Text =>
      TextSim.mongeElkan(Values.normalize(a), Values.normalize(b))
    case DataType.NominalString =>
      if (Values.normalize(a) == Values.normalize(b)) 1.0 else 0.0
    case DataType.InstanceRef =>
      val s = TextSim.mongeElkan(Values.normalize(a), Values.normalize(b))
      if (s >= textThreshold) 1.0 else 0.0
    case DataType.Date =>
      (Values.parseDate(a), Values.parseDate(b)) match {
        case (Some((y1, m1, d1)), Some((y2, m2, d2))) =>
          if (y1 != y2) 0.0
          // year granularity on either side: equal years suffice
          else if (m1 == 0 || m2 == 0) 1.0
          else if (m1 == m2 && d1 == d2) 1.0
          else 0.5
        case _ => 0.0
      }
    case DataType.Quantity =>
      (Values.parseQuantity(a), Values.parseQuantity(b)) match {
        case (Some(x), Some(y)) =>
          val denom = math.max(math.abs(x), math.abs(y))
          if (denom == 0.0) 1.0
          else math.max(0.0, 1.0 - math.abs(x - y) / denom)
        case _ => 0.0
      }
    case DataType.NominalInt =>
      (Values.parseQuantity(a), Values.parseQuantity(b)) match {
        case (Some(x), Some(y)) => if (x == y) 1.0 else 0.0
        case _                  => 0.0
      }
  }

  /** Equivalence decision used for value grouping and fact correctness. */
  def equal(dt: DataType, a: String, b: String): Boolean = dt match {
    case DataType.Text     => sim(dt, a, b) >= textThreshold
    case DataType.Quantity => sim(dt, a, b) >= 1.0 - quantityTolerance
    case DataType.Date     => sim(dt, a, b) >= 1.0
    case _                 => sim(dt, a, b) >= 1.0
  }

  /** Fuse a group of equal values into one fact (paper Section 3.3 step 4):
    * majority value for text/instance-ref/nominals, weighted median for
    * quantity and date.
    */
  def fuse(dt: DataType, values: Seq[(String, Double)]): String = dt match {
    case DataType.Quantity =>
      val parsed = values.flatMap { case (v, w) => Values.parseQuantity(v).map((_, w, v)) }
      if (parsed.isEmpty) values.head._1 else weightedMedian(parsed)
    case DataType.Date =>
      val parsed = values.flatMap { case (v, w) =>
        Values.parseDate(v).map { case (y, m, d) => (y * 10000.0 + m * 100 + d, w, v) }
      }
      if (parsed.isEmpty) values.head._1 else weightedMedian(parsed)
    case _ =>
      // majority by total weight over normalized form; keep a raw witness
      values.groupBy(v => Values.normalize(v._1))
        .maxBy { case (_, vs) => (vs.map(_._2).sum, vs.size) }._2.head._1
  }

  private def weightedMedian(parsed: Seq[(Double, Double, String)]): String = {
    val sorted = parsed.sortBy(_._1)
    val half   = sorted.map(_._2).sum / 2.0
    var acc = 0.0
    sorted.find { case (_, w, _) => acc += w; acc >= half }.getOrElse(sorted.last)._3
  }
}
