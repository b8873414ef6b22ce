package repro

import org.apache.spark.sql.functions._
import repro.bn.{ForwardSampler, TestNets}
import repro.core.SuffStats

/** Exercises the DuckDB oracle on the family rows the paper pipeline
  * aggregates: a wrong Spark aggregation or a broken oracle
  * canonicalization would surface here before it could mask a bug in the
  * pipeline.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private val net = TestNets.random20
  private lazy val family = SuffStats.familyRows(spark, net,
    ForwardSampler.events(spark, net, 300, 4, seed = 1L)).toDF().cache()
  /** Second table for the join: variable → cardinality. */
  private lazy val cards = net.card.toSeq.zipWithIndex.map(_.swap).toDF("variable", "card")

  test("group-by aggregation matches DuckDB") {
    val sparkDf = family.groupBy("i")
      .agg(count(lit(1)).as("cnt"), sum("v").as("vsum"))
      .select("i", "cnt", "vsum")
    Oracle.assertEquivalent(sparkDf,
      """SELECT i, count(*) AS cnt, sum(CAST(v AS BIGINT)) AS vsum
        |FROM family GROUP BY i""".stripMargin,
      "family" -> family)
  }

  test("filtered count matches DuckDB") {
    val sparkDf = family.filter(col("u") > 0).agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT count(*) AS cnt FROM family WHERE CAST(u AS INTEGER) > 0",
      "family" -> family)
  }

  test("join aggregation matches DuckDB") {
    val sparkDf = family.join(cards, family("i") === cards("variable"))
      .groupBy("card")
      .agg(count(lit(1)).as("cnt"))
      .select("card", "cnt")
    Oracle.assertEquivalent(sparkDf,
      """SELECT card, count(*) AS cnt
        |FROM family JOIN cards ON i = variable
        |GROUP BY card""".stripMargin,
      "family" -> family, "cards" -> cards)
  }

  test("oracle rejects a wrong result") {
    val wrong = family.agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS cnt FROM family", "family" -> family)
    }
  }

  test("oracle rejects mismatched column sets") {
    val sparkDf = family.agg(count(lit(1)).as("wrong_name"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(sparkDf, "SELECT count(*) AS cnt FROM family", "family" -> family)
    }
  }
}
