// test_report.cpp — the run-report analyzer (analysis/report.h): the JSON
// subset parser, the metrics/trace/cost loaders against byte-exact writer
// output, report rendering (sections, masking determinism, span-tree
// inclusive/exclusive accounting), and the baseline comparison that
// reproduces the lazy-vs-reference ratio from telemetry alone.
//
// Everything here works on literal telemetry strings: the report consumes
// files, not live sinks.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "analysis/report.h"

namespace rfid::analysis {
namespace {

// --- JSON parser -------------------------------------------------------------

TEST(ReportJson, ParsesScalarsContainersAndEscapes) {
  JsonValue v;
  ASSERT_TRUE(parseJson(R"({"a": 1.5, "b": [true, null, -2e3], "s": "x\nA"})", v));
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(v.find("a")->num(), 1.5);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[1].type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(b->array[2].num(), -2000.0);
  EXPECT_EQ(v.find("s")->str, "x\nA");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ReportJson, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parseJson("{\"a\": }", v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseJson("[1, 2", v));
  EXPECT_FALSE(parseJson("{} trailing", v));
  EXPECT_FALSE(parseJson("\"unterminated", v));
  EXPECT_FALSE(parseJson("01x", v));
}

// --- loaders -----------------------------------------------------------------

constexpr const char* kMetrics = R"({
  "counters": {
    "core.weight_evals": 120,
    "mcs.slots": 3,
    "mcs.tags_read": 40,
    "sched.schedule_calls": 3,
    "sched.weight_evals": 25000
  },
  "gauges": {
    "fault.mcs.ideal_tags_read": 44
  },
  "histograms": {
    "mcs.slot_us": {"count": 3, "min": 10, "max": 30, "mean": 20, "p50": 18, "p90": 28, "p99": 30}
  }
})";

constexpr const char* kJsonl =
    "{\"kind\": \"span\", \"name\": \"mcs.run\", \"ts_us\": 100, \"dur_us\": 100, "
    "\"tid\": 0, \"span_id\": 1, \"parent_id\": 0, \"args\": {}}\n"
    "{\"kind\": \"slot\", \"name\": \"mcs.slot\", \"ts_us\": 40, \"dur_us\": 60, "
    "\"tid\": 0, \"span_id\": 2, \"parent_id\": 1, "
    "\"args\": {\"slot\": 1, \"proposed\": 5, \"delivered\": 30, \"stall\": 0}}\n"
    "{\"kind\": \"span\", \"name\": \"alg2.schedule\", \"ts_us\": 30, \"dur_us\": 40, "
    "\"tid\": 0, \"span_id\": 3, \"parent_id\": 2, \"args\": {}}\n"
    "{\"kind\": \"slot\", \"name\": \"mcs.slot\", \"ts_us\": 90, \"dur_us\": 10, "
    "\"tid\": 0, \"span_id\": 4, \"parent_id\": 1, "
    "\"args\": {\"slot\": 2, \"proposed\": 4, \"delivered\": 10, \"stall\": 0}}\n";

constexpr const char* kCost = R"({
  "total": {"weight_evals":25000,"csr_rows":20,"cache_hits":2,"cache_misses":1,"cache_refreshes":50,"queue_pops":90,"queue_stale_pops":9,"queue_work":200,"dp_entries":0,"bnb_nodes":12,"net_messages":0,"net_rounds":0},
  "phases": {
    "alg2.selection": {"weight_evals":24000,"csr_rows":0,"cache_hits":0,"cache_misses":0,"cache_refreshes":0,"queue_pops":90,"queue_stale_pops":9,"queue_work":200,"dp_entries":0,"bnb_nodes":0,"net_messages":0,"net_rounds":0},
    "mcs.referee": {"weight_evals":1000,"csr_rows":20,"cache_hits":0,"cache_misses":0,"cache_refreshes":0,"queue_pops":0,"queue_stale_pops":0,"queue_work":0,"dp_entries":0,"bnb_nodes":12,"net_messages":0,"net_rounds":0}
  },
  "slots": [
    {"weight_evals":15000,"csr_rows":10,"cache_hits":1,"cache_misses":1,"cache_refreshes":30,"queue_pops":50,"queue_stale_pops":5,"queue_work":120,"dp_entries":0,"bnb_nodes":6,"net_messages":0,"net_rounds":0},
    {"weight_evals":10000,"csr_rows":10,"cache_hits":1,"cache_misses":0,"cache_refreshes":20,"queue_pops":40,"queue_stale_pops":4,"queue_work":80,"dp_entries":0,"bnb_nodes":6,"net_messages":0,"net_rounds":0}
  ]
})";

RunTelemetry loadAll() {
  RunTelemetry run;
  std::string err;
  EXPECT_TRUE(loadMetricsJson(kMetrics, run, &err)) << err;
  EXPECT_TRUE(loadTraceJsonl(kJsonl, run, &err)) << err;
  EXPECT_TRUE(loadCostJson(kCost, run, &err)) << err;
  return run;
}

TEST(ReportLoad, MetricsTraceAndCostRoundTrip) {
  const RunTelemetry run = loadAll();
  EXPECT_TRUE(run.has_metrics);
  EXPECT_TRUE(run.has_trace);
  EXPECT_TRUE(run.has_cost);
  EXPECT_DOUBLE_EQ(run.counter("sched.weight_evals"), 25000.0);
  EXPECT_DOUBLE_EQ(run.counter("absent", -1.0), -1.0);
  ASSERT_EQ(run.events.size(), 4u);
  EXPECT_EQ(run.events[1].name, "mcs.slot");
  EXPECT_DOUBLE_EQ(run.events[1].arg("delivered"), 30.0);
  EXPECT_EQ(run.events[2].parent_id, 2u);
  ASSERT_EQ(run.histograms.count("mcs.slot_us"), 1u);
  EXPECT_EQ(run.histograms.at("mcs.slot_us").count, 3);
  EXPECT_EQ(run.cost_total.workUnits(), 25000 + 200 + 12);
  ASSERT_EQ(run.cost_phases.size(), 2u);
  ASSERT_EQ(run.cost_slots.size(), 2u);
  EXPECT_EQ(run.cost_slots[1].weight_evals, 10000);
}

TEST(ReportLoad, EmptyObjectLoadsCleanly) {
  // "{}" is the smallest valid metrics or cost file.
  RunTelemetry run;
  EXPECT_TRUE(loadMetricsJson("{}", run));
  EXPECT_TRUE(loadCostJson("{}", run));
  EXPECT_TRUE(loadTraceJsonl("", run));
  EXPECT_TRUE(run.counters.empty());
  EXPECT_TRUE(run.cost_total.zero());
}

TEST(ReportLoad, BadLineReportsItsNumber) {
  RunTelemetry run;
  std::string err;
  EXPECT_FALSE(loadTraceJsonl("{\"kind\": \"span\"}\nnot json\n", run, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// --- rendering ---------------------------------------------------------------

TEST(ReportRender, CarriesEverySectionFromLoadedTelemetry) {
  const RunTelemetry run = loadAll();
  const std::string text = renderReport(run);
  EXPECT_NE(text.find("rfidsched run report"), std::string::npos);
  EXPECT_NE(text.find("slots committed"), std::string::npos);
  EXPECT_NE(text.find("cost attribution"), std::string::npos);
  EXPECT_NE(text.find("alg2.selection"), std::string::npos);
  EXPECT_NE(text.find("per-slot timeline"), std::string::npos);
  EXPECT_NE(text.find("span phases"), std::string::npos);
  EXPECT_NE(text.find("wall-clock histograms"), std::string::npos);
  // cache hit rate: 2 diff / 1 full = 66.7% diff
  EXPECT_NE(text.find("66.7%"), std::string::npos) << text;
  // queue stale ratio: 9 / 90 = 10.0%
  EXPECT_NE(text.find("10.0%"), std::string::npos) << text;
}

TEST(ReportRender, MaskWallBlanksClocksButKeepsWork) {
  const RunTelemetry run = loadAll();
  ReportOptions opt;
  opt.mask_wall = true;
  const std::string masked = renderReport(run, opt);
  // No raw wall figure survives (the spans carry 100/60/40/10 us).
  EXPECT_EQ(masked.find(" 100\n"), std::string::npos);
  EXPECT_NE(masked.find("(name order)"), std::string::npos);
  // Deterministic work figures stay.
  EXPECT_NE(masked.find("25212"), std::string::npos);  // total work units
  EXPECT_EQ(masked, renderReport(run, opt));
}

TEST(ReportRender, SpanTreeExclusiveSubtractsChildren) {
  RunTelemetry run;
  ASSERT_TRUE(loadTraceJsonl(kJsonl, run));
  const std::string text = renderReport(run);
  // mcs.run: incl 100, children (two mcs.slot spans, 60+10) => excl 30.
  // mcs.slot: incl 70, child alg2.schedule 40 => excl 30.
  const std::size_t run_row = text.find("mcs.run");
  ASSERT_NE(run_row, std::string::npos);
  const std::string tail = text.substr(run_row, text.find('\n', run_row) - run_row);
  EXPECT_NE(tail.find("100"), std::string::npos) << tail;
  EXPECT_NE(tail.find("30"), std::string::npos) << tail;
}

TEST(ReportRender, ComparisonReproducesTheHeadlineRatio) {
  // A reference run's counters vs the lazy run's: the ratio column must
  // carry baseline/current — the telemetry-only reproduction of the
  // 1.66M -> 25k weight-eval headline (docs/performance.md).
  RunTelemetry lazy;
  ASSERT_TRUE(loadMetricsJson(kMetrics, lazy));
  RunTelemetry ref;
  ASSERT_TRUE(loadMetricsJson(
      R"({"counters": {"sched.weight_evals": 1660000, "mcs.slots": 3}})", ref));
  const std::string cmp = renderComparison(ref, lazy);
  EXPECT_NE(cmp.find("sched.weight_evals"), std::string::npos);
  EXPECT_NE(cmp.find("1660000"), std::string::npos);
  EXPECT_NE(cmp.find("25000"), std::string::npos);
  EXPECT_NE(cmp.find("66.40x"), std::string::npos) << cmp;
  EXPECT_NE(cmp.find("1.00x"), std::string::npos);  // mcs.slots unchanged
}

TEST(ReportSvg, WritesAChartWhenPerSlotDataExists) {
  const RunTelemetry run = loadAll();
  const std::string path = "report_test_chart.svg";
  ASSERT_TRUE(writeReportSvgFile(path, run));
  std::ifstream is(path);
  std::string svg((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("tags delivered"), std::string::npos);
  std::remove(path.c_str());

  RunTelemetry empty;
  EXPECT_FALSE(writeReportSvgFile(path, empty));
}

}  // namespace
}  // namespace rfid::analysis
