// test_obs.cpp — the rfid::obs observability layer: registry semantics,
// histogram percentiles, trace export well-formedness, parallel-sweep
// determinism, and the MCS driver's counter contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/parallel.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sched/growth.h"
#include "sched/mcs.h"
#include "workload/scenario.h"

namespace {

using namespace rfid;

// --- minimal recursive-descent JSON validator -------------------------------
// Validates syntax only (objects, arrays, strings with escapes, numbers,
// true/false/null); enough to assert every exported byte stream is real
// JSON without external dependencies.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  bool consume(char c) {
    if (eof() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool object() {
    if (!consume('{')) return false;
    skipWs();
    if (consume('}')) return true;
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (!consume(':')) return false;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array() {
    if (!consume('[')) return false;
    skipWs();
    if (consume(']')) return true;
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (eof() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    consume('-');
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (consume('.')) {
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::string dumpJson(const obs::MetricsRegistry& r) {
  std::ostringstream os;
  r.writeJson(os);
  return os.str();
}

// --- API exercises -----------------------------------------------------------

TEST(Obs, ApiIsUsableInEveryBuildMode) {
  obs::MetricsRegistry r;
  r.counter("a.count").add(3);
  r.gauge("a.gauge").set(1.5);
  r.histogram("a.hist").record(10.0);
  obs::TraceSink sink;
  sink.instant(obs::EventKind::kRound, "round", {{"n", 1.0}});
  {
    obs::ScopedTimer t(&r, "a.span_us", &sink, "span");
    t.arg("k", 2.0);
    t.setParent(t.spanId());
  }
  (void)sink.newSpanId();
  sink.pushSpan(1);
  (void)sink.currentSpan();
  sink.popSpan();
  (void)sink.threadId();
  const std::string json = dumpJson(r);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  std::ostringstream chrome;
  sink.writeChromeTrace(chrome);
  EXPECT_TRUE(JsonValidator(chrome.str()).valid()) << chrome.str();
  std::ostringstream prom;
  r.writePrometheus(prom);
}

// --- registry semantics -----------------------------------------------------

TEST(ObsRegistry, SameNameSameKindReturnsSameHandle) {
  obs::MetricsRegistry r;
  obs::Counter& a = r.counter("x.count");
  a.add(2);
  // Handles are stable across later insertions (std::map nodes don't move).
  for (int i = 0; i < 64; ++i) {
    r.counter("filler." + std::to_string(i));
  }
  obs::Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 2);
}

TEST(ObsRegistry, NameCollisionAcrossKindsThrows) {
  obs::MetricsRegistry r;
  r.counter("dup");
  EXPECT_THROW(r.gauge("dup"), std::logic_error);
  EXPECT_THROW(r.histogram("dup"), std::logic_error);
  r.gauge("g");
  EXPECT_THROW(r.counter("g"), std::logic_error);
  // The failed registrations must not have disturbed the originals.
  r.counter("dup").add(1);
  EXPECT_EQ(r.counter("dup").value(), 1);
}

TEST(ObsRegistry, MergeAddsCountersOverwritesGauges) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("c").add(5);
  b.counter("c").add(7);
  b.counter("only_b").add(1);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  a.histogram("h").record(1.0);
  b.histogram("h").record(3.0);
  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 12);
  EXPECT_EQ(a.counter("only_b").value(), 1);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 2.0);
  EXPECT_EQ(a.histogram("h").count(), 2);
  EXPECT_DOUBLE_EQ(a.histogram("h").min(), 1.0);
  EXPECT_DOUBLE_EQ(a.histogram("h").max(), 3.0);
}

TEST(ObsRegistry, MergeKindMismatchThrows) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("m");
  b.gauge("m").set(1.0);
  EXPECT_THROW(a.merge(b), std::logic_error);
}

// --- histogram --------------------------------------------------------------

TEST(ObsHistogram, StatsExactPercentilesApproximate) {
  obs::Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Log buckets + in-bucket interpolation: a uniform distribution keeps the
  // interpolation honest, so estimates land within ~15% of the true value.
  EXPECT_NEAR(h.percentile(50), 500.0, 75.0);
  EXPECT_NEAR(h.percentile(90), 900.0, 135.0);
  EXPECT_NEAR(h.percentile(99), 990.0, 150.0);
  // Clamped to the observed range and monotone in p.
  EXPECT_GE(h.percentile(0), h.min());
  EXPECT_LE(h.percentile(100), h.max());
  double prev = 0.0;
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "percentile not monotone at p=" << p;
    prev = v;
  }
}

TEST(ObsHistogram, EmptyIsAllZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(ObsHistogram, QuantileErrorBoundedByLogBucketWidth) {
  // The documented accuracy bound (docs/observability.md): for samples
  // >= 1, every estimated percentile lands in the same power-of-two bucket
  // as the nearest-rank exact quantile, so the relative error is below
  // 100% — estimate in [exact/2, exact*2] — for ANY distribution.  Each
  // case below stresses a different failure mode of interpolation: smooth
  // mass, exponential spread, all mass on one value, a bimodal gap, and a
  // heavy tail.
  struct Case {
    const char* name;
    std::vector<double> vals;
  };
  std::vector<Case> cases;
  {
    Case c{"uniform", {}};
    for (int i = 1; i <= 1000; ++i) c.vals.push_back(i);
    cases.push_back(std::move(c));
  }
  {
    Case c{"exponential", {}};
    for (int i = 0; i < 500; ++i) c.vals.push_back(std::ldexp(1.0, i % 20));
    cases.push_back(std::move(c));
  }
  {
    Case c{"constant", std::vector<double>(200, 777.0)};
    cases.push_back(std::move(c));
  }
  {
    Case c{"bimodal", {}};
    for (int i = 0; i < 300; ++i) c.vals.push_back(i < 150 ? 3.0 : 50000.0);
    cases.push_back(std::move(c));
  }
  {
    Case c{"heavy_tail", {}};
    for (int i = 1; i <= 400; ++i) c.vals.push_back(double(i) * double(i));
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    obs::Histogram h;
    for (const double v : c.vals) h.record(v);
    std::vector<double> sorted = c.vals;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {50.0, 90.0, 99.0}) {
      // Nearest-rank exact quantile: the ceil(p/100 * n)-th smallest.
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
      const double exact = sorted[std::min(rank, sorted.size()) - 1];
      const double est = h.percentile(p);
      EXPECT_GE(est, exact / 2.0)
          << c.name << " p" << p << ": est " << est << " exact " << exact;
      EXPECT_LE(est, exact * 2.0)
          << c.name << " p" << p << ": est " << est << " exact " << exact;
    }
  }
}

// --- export well-formedness -------------------------------------------------

TEST(ObsExport, MetricsJsonIsValidAndDeterministic) {
  const auto fill = [](obs::MetricsRegistry& r) {
    r.counter("z.last").add(9);
    r.counter("a.first").add(1);
    r.gauge("m.gauge").set(-2.5);
    for (int i = 0; i < 100; ++i) r.histogram("m.hist").record(i + 1);
  };
  obs::MetricsRegistry r1;
  obs::MetricsRegistry r2;
  fill(r1);
  fill(r2);
  const std::string j1 = dumpJson(r1);
  EXPECT_TRUE(JsonValidator(j1).valid()) << j1;
  EXPECT_EQ(j1, dumpJson(r2));
  // Sorted keys: "a.first" must appear before "z.last".
  EXPECT_LT(j1.find("a.first"), j1.find("z.last"));
}

TEST(ObsExport, JsonlEveryLineParses) {
  obs::TraceSink sink;
  sink.instant(obs::EventKind::kRound, "net.round", {{"round", 1.0}});
  sink.complete(obs::EventKind::kSlot, "mcs.slot", 10, 25,
                {{"slot", 1.0}, {"delivered", 12.0}}, 2);
  sink.instant(obs::EventKind::kFrame, "quote\"and\\backslash");
  std::ostringstream os;
  sink.writeJsonl(os);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 3);
}

TEST(ObsExport, ChromeTraceValidAndMonotonicPerThread) {
  obs::TraceSink sink;
  // Deliberately record out of timestamp order and across threads.
  sink.complete(obs::EventKind::kSpan, "late", 50, 5, {}, 0);
  sink.complete(obs::EventKind::kSpan, "early", 10, 5, {}, 0);
  sink.complete(obs::EventKind::kSpan, "other_thread", 1, 2, {}, 1);
  sink.instant(obs::EventKind::kRound, "now");
  std::ostringstream os;
  sink.writeChromeTrace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // The export sorts by (tid, ts): "early" precedes "late".
  EXPECT_LT(trace.find("\"early\""), trace.find("\"late\""));
}

// --- scoped timer -----------------------------------------------------------

TEST(ObsTimer, RecordsHistogramAndTraceSpan) {
  obs::MetricsRegistry r;
  obs::TraceSink sink;
  {
    obs::ScopedTimer t(&r, "op.us", &sink, "op", obs::EventKind::kSlot);
    t.arg("size", 3.0);
  }
  EXPECT_EQ(r.histogram("op.us").count(), 1);
  ASSERT_EQ(sink.size(), 1u);
  const auto events = sink.snapshot();
  EXPECT_EQ(events[0].name, "op");
  EXPECT_EQ(events[0].kind, obs::EventKind::kSlot);
  EXPECT_GE(events[0].dur_us, 1);  // clamped so Chrome renders the span
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "size");
}

// --- causal spans -----------------------------------------------------------

TEST(ObsSpans, NestedTimersFormACausalTree) {
  obs::MetricsRegistry r;
  obs::TraceSink sink;
  {
    obs::ScopedTimer outer(&r, "outer_us", &sink, "outer");
    {
      obs::ScopedTimer inner(&r, "inner_us", &sink, "inner");
    }
    sink.instant(obs::EventKind::kRound, "tick");
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  const auto find = [&](std::string_view name) -> const obs::TraceEvent& {
    for (const auto& e : events) {
      if (e.name == name) return e;
    }
    static const obs::TraceEvent none{};
    ADD_FAILURE() << "no event " << name;
    return none;
  };
  const obs::TraceEvent& outer = find("outer");
  const obs::TraceEvent& inner = find("inner");
  const obs::TraceEvent& tick = find("tick");
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_NE(inner.span_id, 0u);
  EXPECT_NE(outer.span_id, inner.span_id);
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  // Instants attach to the innermost open span of their thread.
  EXPECT_EQ(tick.span_id, 0u);
  EXPECT_EQ(tick.parent_id, outer.span_id);
}

TEST(ObsSpans, SiblingSinksKeepIndependentStacks) {
  obs::TraceSink a;
  obs::TraceSink b;
  obs::ScopedTimer ta(nullptr, "", &a, "a_span");
  obs::ScopedTimer tb(nullptr, "", &b, "b_span");
  // Each sink sees only its own open span on this thread.
  EXPECT_EQ(a.currentSpan(), ta.spanId());
  EXPECT_EQ(b.currentSpan(), tb.spanId());
  tb.stop();
  EXPECT_EQ(b.currentSpan(), 0u);
  EXPECT_EQ(a.currentSpan(), ta.spanId());
  ta.stop();
}

TEST(ObsSpans, WorkerThreadSpanAdoptsExplicitParent) {
  // A worker thread's stack is empty, so the dispatching thread's span id is
  // handed over explicitly — the pattern the parallel schedulers use.
  obs::TraceSink sink;
  std::uint64_t parent_span = 0;
  {
    obs::ScopedTimer parent(nullptr, "", &sink, "dispatch");
    parent_span = parent.spanId();
    std::thread worker([&sink, parent_span]() {
      obs::ScopedTimer t(nullptr, "", &sink, "worker");
      t.setParent(parent_span);
    });
    worker.join();
  }
  for (const auto& e : sink.snapshot()) {
    if (e.name != "worker") continue;
    EXPECT_EQ(e.parent_id, parent_span);
    EXPECT_NE(e.tid, 0) << "worker thread must get its own tid";
    return;
  }
  FAIL() << "worker span not recorded";
}

TEST(ObsSpans, ExportsCarrySpanIds) {
  obs::TraceSink sink;
  {
    obs::ScopedTimer t(nullptr, "", &sink, "op");
  }
  std::ostringstream jsonl;
  sink.writeJsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"span_id\": 1"), std::string::npos)
      << jsonl.str();
  EXPECT_NE(jsonl.str().find("\"parent_id\": 0"), std::string::npos);
  std::ostringstream chrome;
  sink.writeChromeTrace(chrome);
  EXPECT_TRUE(JsonValidator(chrome.str()).valid());
  // Chrome has no parent field; ids ride in args.
  EXPECT_NE(chrome.str().find("\"span_id\""), std::string::npos);
}

// --- Prometheus exposition ---------------------------------------------------

TEST(ObsExport, PrometheusTextExposition) {
  obs::MetricsRegistry r;
  r.counter("mcs.slots").add(3);
  r.gauge("fault.mcs.tags_orphaned").set(-2.5);
  for (int i = 1; i <= 100; ++i) r.histogram("alg2.schedule_us").record(i);
  std::ostringstream os;
  r.writePrometheus(os);
  const std::string text = os.str();
  // Dots sanitize to underscores; counters get the _total suffix.
  EXPECT_NE(text.find("# TYPE mcs_slots_total counter\nmcs_slots_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fault_mcs_tags_orphaned -2.5"), std::string::npos);
  // Histograms export their summary stats as suffixed gauges.
  EXPECT_NE(text.find("# TYPE alg2_schedule_us_p99 gauge"), std::string::npos);
  EXPECT_NE(text.find("alg2_schedule_us_count 100"), std::string::npos);
}

TEST(ObsTimer, StopIsIdempotentAndDetachedTimerIsFree) {
  obs::MetricsRegistry r;
  obs::ScopedTimer t(&r, "op.us");
  t.stop();
  t.stop();
  EXPECT_EQ(r.histogram("op.us").count(), 1);
  obs::ScopedTimer detached(nullptr, "ignored");
  EXPECT_EQ(detached.stop(), 0);
}

// --- determinism under parallelFor ------------------------------------------

TEST(ObsParallel, SharedRegistryTotalsMatchAcrossThreadCounts) {
  const int n = 500;
  const auto run = [n](int threads) {
    obs::MetricsRegistry r;
    obs::Counter& c = r.counter("work.sum");
    analysis::parallelFor(
        0, n, [&c](int i) { c.add(i + 1); }, threads);
    return c.value();
  };
  const std::int64_t expected =
      static_cast<std::int64_t>(n) * (n + 1) / 2;
  EXPECT_EQ(run(1), expected);
  EXPECT_EQ(run(4), expected);
}

TEST(ObsParallel, PerIterationMergeIsBitIdenticalAcrossThreadCounts) {
  // The repo's sweep discipline: one registry per iteration, merged
  // sequentially in index order afterwards.  The full JSON dump (counters,
  // gauges, histogram percentiles) must not depend on the thread count.
  const int n = 64;
  const auto run = [n](int threads) {
    std::vector<obs::MetricsRegistry> regs(static_cast<std::size_t>(n));
    analysis::parallelFor(
        0, n,
        [&regs](int i) {
          obs::MetricsRegistry& r = regs[static_cast<std::size_t>(i)];
          r.counter("it.count").add(i % 7);
          r.gauge("it.last").set(i);
          r.histogram("it.hist").record((i % 13) + 1);
        },
        threads);
    obs::MetricsRegistry total;
    for (const auto& r : regs) total.merge(r);
    return dumpJson(total);
  };
  const std::string at1 = run(1);
  EXPECT_EQ(at1, run(4));
  EXPECT_EQ(at1, run(7));
}

// --- wiring: the MCS driver's counter contract ------------------------------

TEST(ObsWiring, McsSlotsCounterMatchesResult) {
  workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  sc.deploy.num_readers = 15;
  sc.deploy.num_tags = 150;
  sc.deploy.region_side = 60.0;
  core::System sys = workload::makeSystem(sc, 42);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler alg2(g);

  obs::MetricsRegistry r;
  sys.attachMetrics(&r);
  alg2.attachMetrics(&r);
  sched::McsOptions opt;
  opt.metrics = &r;
  const sched::McsResult res = sched::runCoveringSchedule(sys, alg2, opt);

  EXPECT_EQ(r.counter("mcs.slots").value(), res.slots);
  EXPECT_EQ(r.counter("mcs.tags_read").value(), res.tags_read);
  // The MCS loop issues exactly one scheduling decision per slot.
  EXPECT_EQ(r.counter("sched.schedule_calls").value(), res.slots);
  EXPECT_GT(r.counter("sched.weight_evals").value(), 0);
  EXPECT_GT(r.counter("core.well_covered_evals").value(), 0);
  // Per-slot size histogram saw one sample per slot.
  EXPECT_EQ(r.histogram("mcs.slot_proposed_readers").count(), res.slots);
}

TEST(ObsWiring, TraceCapturesOneSpanPerSlot) {
  workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  sc.deploy.num_readers = 12;
  sc.deploy.num_tags = 80;
  sc.deploy.region_side = 50.0;
  core::System sys = workload::makeSystem(sc, 7);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler alg2(g);

  obs::MetricsRegistry r;
  obs::TraceSink sink;
  sched::McsOptions opt;
  opt.metrics = &r;
  opt.trace = &sink;
  const sched::McsResult res = sched::runCoveringSchedule(sys, alg2, opt);

  int slot_spans = 0;
  for (const auto& e : sink.snapshot()) {
    if (e.kind == obs::EventKind::kSlot && e.dur_us > 0) ++slot_spans;
  }
  EXPECT_EQ(slot_spans, res.slots);
  // With a trace attached, the wall-clock histogram rides along.
  EXPECT_EQ(r.histogram("mcs.slot_us").count(), res.slots);
}

}  // namespace
