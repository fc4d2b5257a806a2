// Streaming MCS tests (docs/streaming.md): the metamorphic anchor (an
// empty churn trace is bit-identical to the static driver for every
// algorithm at every thread count, clean and faulted), faults on the
// stream clock, churn trace generation/serialization, overload control,
// the index oracle's divergence contract inside the stream, and checkpoint
// interrupt/resume bit-identity with the churn trace folded into the
// journal identity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "check/index_oracle.h"
#include "ckpt/mcs_ckpt.h"
#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/streaming.h"
#include "test_helpers.h"
#include "workload/churn.h"

namespace rfid::sched {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 8101;

std::unique_ptr<OneShotScheduler> makeScheduler(
    const std::string& algo, const graph::InterferenceGraph& g,
    const core::System& sys, int threads) {
  if (algo == "alg2") {
    GrowthOptions o;
    o.num_threads = threads;
    return std::make_unique<GrowthScheduler>(g, o);
  }
  if (algo == "alg3") return std::make_unique<dist::GrowthDistributedScheduler>(g);
  if (algo == "ghc") return std::make_unique<HillClimbingScheduler>();
  if (algo == "ca") return std::make_unique<dist::ColorwaveScheduler>(sys, kSeed);
  ADD_FAILURE() << "unknown algo " << algo;
  return nullptr;
}

TEST(Streaming, EmptyTraceIsBitIdenticalToStaticMcs) {
  // The metamorphic anchor: with no churn the streaming driver must commit
  // exactly the slots, tags, degradation, metrics, and cost ledger of
  // runCoveringSchedule — for every algorithm, at every thread count, clean
  // and under a fault plan (a loud permanent crash, a transient crash, and
  // interrogation misses), whose gauges both drivers export.
  fault::FaultPlan faults;
  faults.addCrash(3, 0, -1, /*loud=*/true);
  faults.addCrash(7, 2, 6);
  faults.setMissRate(0.1);
  for (const fault::FaultPlan* plan : {static_cast<fault::FaultPlan*>(nullptr),
                                       &faults}) {
    for (const std::string algo : {"alg2", "alg3", "ghc", "ca"}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(algo + " threads=" + std::to_string(threads) +
                     (plan != nullptr ? " faulted" : ""));

        core::System a = test::smallRandomSystem(kSeed, 20, 300, 60.0);
        const graph::InterferenceGraph ga(a);
        auto sa = makeScheduler(algo, ga, a, threads);
        obs::MetricsRegistry reg_a;
        obs::CostLedger cost_a;
        sa->attachMetrics(&reg_a);
        sa->attachCost(&cost_a);
        McsOptions mo;
        mo.max_stall = 50;
        mo.metrics = &reg_a;
        mo.cost = &cost_a;
        mo.faults = plan;
        const McsResult want = runCoveringSchedule(a, *sa, mo);

        core::System b = test::smallRandomSystem(kSeed, 20, 300, 60.0);
        const graph::InterferenceGraph gb(b);
        auto sb = makeScheduler(algo, gb, b, threads);
        obs::MetricsRegistry reg_b;
        obs::CostLedger cost_b;
        sb->attachMetrics(&reg_b);
        sb->attachCost(&cost_b);
        StreamingOptions so;
        so.max_stall = 50;
        so.metrics = &reg_b;
        so.cost = &cost_b;
        so.faults = plan;
        const StreamingResult got = runStreamingMcs(b, *sb, {}, so);

        EXPECT_EQ(got.slots, want.slots);
        EXPECT_EQ(got.tags_read, want.tags_read);
        EXPECT_EQ(got.uncoverable, want.uncoverable);
        EXPECT_EQ(got.idle_slots, 0);
        EXPECT_EQ(got.stream_slots, want.slots);
        EXPECT_EQ(got.drained, want.completed);
        if (plan == nullptr) {
          EXPECT_TRUE(got.drained);
        }
        const McsDegradation& dw = want.degradation;
        const McsDegradation& dg = got.degradation;
        EXPECT_EQ(std::tie(dg.faulty_slots, dg.slots_lost,
                           dg.crashed_activations, dg.replanned_activations,
                           dg.tags_missed, dg.tags_orphaned, dg.ideal_tags_read),
                  std::tie(dw.faulty_slots, dw.slots_lost,
                           dw.crashed_activations, dw.replanned_activations,
                           dw.tags_missed, dw.tags_orphaned, dw.ideal_tags_read));
        ASSERT_EQ(got.schedule.size(), want.schedule.size());
        for (std::size_t q = 0; q < want.schedule.size(); ++q) {
          EXPECT_EQ(got.schedule[q].active, want.schedule[q].active)
              << "slot " << q;
          EXPECT_EQ(got.schedule[q].tags_read, want.schedule[q].tags_read)
              << "slot " << q;
        }
        std::ostringstream ma, mb, ca_j, cb_j;
        reg_a.writeJson(ma);
        reg_b.writeJson(mb);
        EXPECT_EQ(ma.str(), mb.str()) << "metrics JSON diverged";
        cost_a.writeJson(ca_j);
        cost_b.writeJson(cb_j);
        EXPECT_EQ(ca_j.str(), cb_j.str()) << "cost ledger diverged";
      }
    }
  }
}

TEST(Streaming, FaultsFollowTheStreamClock) {
  // The fault plan speaks in the stream clock, idle slots included.  The
  // initial population drains long before slot 40; arrivals at slot 40
  // force an idle fast-forward, and every reader is silently crashed for
  // exactly [40, 41).  Keyed on the committed-slot index (< 40) the slot
  // would never see that window.
  core::System sys = test::smallRandomSystem(kSeed + 6, 10, 60, 40.0);
  const graph::InterferenceGraph g(sys);
  GrowthScheduler alg2(g);
  fault::FaultPlan plan;
  workload::ChurnTrace trace;
  for (int v = 0; v < sys.numReaders(); ++v) {
    plan.addCrash(v, 40, 41);
    workload::ChurnEvent e;
    e.slot = 40;
    e.kind = workload::ChurnKind::kArrive;
    e.pos = sys.reader(v).pos;  // inside v's interrogation disk
    e.epc = static_cast<std::uint64_t>(1000 + v);
    trace.events.push_back(e);
  }
  trace.horizon = 41;

  StreamingOptions so;
  so.faults = &plan;
  const StreamingResult res = runStreamingMcs(sys, alg2, trace, so);
  EXPECT_GT(res.idle_slots, 0);
  EXPECT_GT(res.degradation.crashed_activations, 0);
  EXPECT_GE(res.degradation.slots_lost, 1);
  EXPECT_TRUE(res.drained);
}

TEST(Streaming, ChurnTraceGenerationIsDeterministicAndRateFaithful) {
  workload::ChurnConfig cc;
  cc.arrival_rate = 6.0;
  cc.depart_rate = 2.0;
  cc.move_rate = 1.0;
  cc.slots = 50;
  const workload::ChurnTrace a = workload::makeChurnTrace(cc, 100, 5);
  const workload::ChurnTrace b = workload::makeChurnTrace(cc, 100, 5);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i;
  }
  EXPECT_NE(workload::churnTraceHash(a),
            workload::churnTraceHash(workload::makeChurnTrace(cc, 100, 6)));

  // Poisson(6) arrivals over 50 slots: loosely banded around 300.
  int arrivals = 0;
  for (const auto& e : a.events) {
    arrivals += e.kind == workload::ChurnKind::kArrive ? 1 : 0;
  }
  EXPECT_GT(arrivals, 150);
  EXPECT_LT(arrivals, 450);

  // Zero rates mean zero events, not UB.
  workload::ChurnConfig quiet;
  quiet.arrival_rate = 0.0;
  quiet.slots = 20;
  EXPECT_TRUE(workload::makeChurnTrace(quiet, 10, 1).empty());

  // A 10x burst multiplier produces strictly more arrivals than the same
  // seed without one.
  workload::ChurnConfig bursty = cc;
  bursty.burst_multiplier = 10.0;
  bursty.burst_enter = 0.2;
  int burst_arrivals = 0;
  for (const auto& e : workload::makeChurnTrace(bursty, 100, 5).events) {
    burst_arrivals += e.kind == workload::ChurnKind::kArrive ? 1 : 0;
  }
  EXPECT_GT(burst_arrivals, arrivals);
}

TEST(Streaming, ChurnTraceRoundTripsAndFailsClosed) {
  workload::ChurnConfig cc;
  cc.arrival_rate = 4.0;
  cc.depart_rate = 1.0;
  cc.move_rate = 1.0;
  cc.slots = 30;
  const workload::ChurnTrace trace = workload::makeChurnTrace(cc, 40, 9);
  std::ostringstream os;
  workload::saveChurnTrace(os, trace);
  std::istringstream is(os.str());
  const auto loaded = workload::loadChurnTrace(is);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_TRUE(loaded->events[i] == trace.events[i]) << "event " << i;
  }
  EXPECT_EQ(workload::churnTraceHash(*loaded), workload::churnTraceHash(trace));

  const auto rejects = [](const char* text, const char* what) {
    std::istringstream ss(text);
    std::string err;
    EXPECT_FALSE(workload::loadChurnTrace(ss, &err).has_value()) << what;
    EXPECT_NE(err.find("churn trace line"), std::string::npos) << err;
  };
  rejects("arrive,0,nan,2.0,7\n", "non-finite coordinate");
  rejects("arrive,0,1.0\n", "short record");
  rejects("depart,0,-3\n", "negative tag");
  rejects("warp,0,1\n", "unknown kind");
  rejects("depart,5,1\ndepart,4,2\n", "out-of-order slots");
}

TEST(Streaming, ServesChurningPopulationAndDrains) {
  core::System sys = test::smallRandomSystem(kSeed, 20, 200, 60.0);
  const graph::InterferenceGraph g(sys);
  GrowthScheduler alg2(g);
  workload::ChurnConfig cc;
  cc.arrival_rate = 5.0;
  cc.depart_rate = 1.0;
  cc.move_rate = 1.0;
  cc.slots = 40;
  cc.region_side = 60.0;
  const workload::ChurnTrace trace =
      workload::makeChurnTrace(cc, sys.numTags(), kSeed);

  check::IncrementalIndexOracle oracle;
  StreamingOptions so;
  so.oracle = &oracle;
  const StreamingResult res = runStreamingMcs(sys, alg2, trace, so);
  EXPECT_TRUE(res.drained);
  EXPECT_GT(res.arrived, 0);
  EXPECT_GT(res.departed, 0);
  EXPECT_GT(res.moved, 0);
  EXPECT_EQ(res.skipped_events, 0);
  EXPECT_GT(res.tags_read, 0);
  EXPECT_GE(res.latency_p99, res.latency_p50);
  EXPECT_GT(res.tags_per_sec, 0.0);
  EXPECT_GT(res.index_checks, 0);
  EXPECT_EQ(res.index_divergences, 0) << "incremental index diverged";
  EXPECT_EQ(sys.unreadCoverableCount(), 0);
}

TEST(Streaming, BacklogBoundShedsAndCapsBacklog) {
  core::System sys = test::smallRandomSystem(kSeed + 1, 10, 50, 50.0);
  const graph::InterferenceGraph g(sys);
  GrowthScheduler alg2(g);
  workload::ChurnConfig cc;
  cc.arrival_rate = 8.0;
  cc.burst_multiplier = 10.0;  // 10x bursts must not grow backlog unboundedly
  cc.burst_enter = 0.3;
  cc.slots = 60;
  cc.region_side = 50.0;
  const workload::ChurnTrace trace =
      workload::makeChurnTrace(cc, sys.numTags(), kSeed);

  StreamingOptions so;
  so.max_backlog = 12;
  const StreamingResult res = runStreamingMcs(sys, alg2, trace, so);
  EXPECT_LE(res.backlog_peak, 12);
  EXPECT_GT(res.shed, 0) << "a 10x burst against 12 backlog slots must shed";
  EXPECT_TRUE(res.drained);

  // kRejectLargest sheds too, and both policies keep the bound.
  core::System sys2 = test::smallRandomSystem(kSeed + 1, 10, 50, 50.0);
  const graph::InterferenceGraph g2(sys2);  // scheduler keeps a reference
  GrowthScheduler alg2b(g2);
  so.shed_policy = service::ShedPolicy::kRejectLargest;
  const StreamingResult res2 = runStreamingMcs(sys2, alg2b, trace, so);
  EXPECT_LE(res2.backlog_peak, 12);
  EXPECT_GT(res2.shed, 0);
}

TEST(Streaming, DeadlineAgingShedsStaleTags) {
  // A deterministic RRc starvation: readers A and B are independent
  // (distance 11 > max interference radius 10) but their interrogation
  // disks (γ = 9) overlap.  One shared tag sits in the overlap; every slot
  // two fresh exclusive tags arrive per reader, so greedy always activates
  // both readers (w({A,B}) = 4 beats any single reader's 3) and the shared
  // tag is cancelled by RRc forever.  Without aging it starves; with
  // shed_after_slots = 3 the driver must shed it once it is 4 slots old.
  std::vector<core::Reader> readers;
  for (const double x : {0.0, 11.0}) {
    core::Reader r;
    r.pos = {x, 0.0};
    r.interference_radius = 10.0;
    r.interrogation_radius = 9.0;
    readers.push_back(r);
  }
  core::System sys(std::move(readers), {});
  const graph::InterferenceGraph g(sys);
  ASSERT_EQ(g.numEdges(), 0) << "A and B must be independent";
  GrowthScheduler alg2(g);

  workload::ChurnTrace trace;
  const auto arrive = [&trace](int slot, double x, double y) {
    workload::ChurnEvent e;
    e.slot = slot;
    e.kind = workload::ChurnKind::kArrive;
    e.pos = {x, y};
    e.epc = static_cast<std::uint64_t>(trace.events.size());
    trace.events.push_back(e);
  };
  arrive(0, 5.5, 0.0);  // the shared tag, covered by both readers
  for (int s = 0; s < 10; ++s) {
    arrive(s, -5.0, 0.0);  // A-exclusive pair
    arrive(s, -5.0, 1.0);
    arrive(s, 16.0, 0.0);  // B-exclusive pair
    arrive(s, 16.0, 1.0);
  }
  trace.horizon = 10;

  StreamingOptions so;
  so.shed_after_slots = 3;
  const StreamingResult res = runStreamingMcs(sys, alg2, trace, so);
  EXPECT_EQ(res.shed_aged, 1) << "the starved shared tag must age out";
  EXPECT_EQ(res.shed, 0) << "no backlog bound is set";
  EXPECT_EQ(res.tags_read, 40) << "every exclusive tag is served";
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.latency_p99, 0.0) << "exclusive tags are served on arrival";
}

TEST(Streaming, InvalidTraceTargetsAreCountedNotFatal) {
  core::System sys = test::smallRandomSystem(kSeed + 3, 10, 30, 40.0);
  const graph::InterferenceGraph g(sys);
  GrowthScheduler alg2(g);
  workload::ChurnTrace trace;
  workload::ChurnEvent dep;
  dep.slot = 0;
  dep.kind = workload::ChurnKind::kDepart;
  dep.tag = 9999;  // out of range
  trace.events.push_back(dep);
  workload::ChurnEvent dup = dep;
  dup.tag = 0;
  trace.events.push_back(dup);  // valid…
  trace.events.push_back(dup);  // …then already departed
  trace.horizon = 1;
  const StreamingResult res = runStreamingMcs(sys, alg2, trace, {});
  EXPECT_EQ(res.departed, 1);
  EXPECT_EQ(res.skipped_events, 2);
  EXPECT_TRUE(res.drained);
}

TEST(Streaming, OracleDivergenceHealsInProductionStopsUnderCheck) {
  workload::ChurnConfig cc;
  cc.arrival_rate = 3.0;
  cc.slots = 20;
  cc.region_side = 40.0;

  // Production posture: divergence is healed, the stream finishes, the
  // incident is on the record.
  {
    core::System sys = test::smallRandomSystem(kSeed + 4, 10, 40, 40.0);
    const graph::InterferenceGraph g(sys);  // scheduler keeps a reference
    GrowthScheduler alg2(g);
    sys.testOnlyCorruptIndex();
    check::IndexOracleOptions oo;
    oo.paranoid = true;
    check::IncrementalIndexOracle oracle(oo);
    StreamingOptions so;
    so.oracle = &oracle;
    const StreamingResult res = runStreamingMcs(
        sys, alg2, workload::makeChurnTrace(cc, sys.numTags(), kSeed), so);
    EXPECT_EQ(res.stop, McsStop::kNone);
    EXPECT_TRUE(res.drained);
    EXPECT_EQ(res.index_divergences, 1);
    EXPECT_EQ(res.index_heals, 1);
  }
  // --check posture: any divergence, healed or not, stops the run.
  {
    core::System sys = test::smallRandomSystem(kSeed + 4, 10, 40, 40.0);
    const graph::InterferenceGraph g(sys);  // scheduler keeps a reference
    GrowthScheduler alg2(g);
    sys.testOnlyCorruptIndex();
    check::IndexOracleOptions oo;
    oo.paranoid = true;
    check::IncrementalIndexOracle oracle(oo);
    StreamingOptions so;
    so.oracle = &oracle;
    so.fail_on_divergence = true;
    const StreamingResult res = runStreamingMcs(
        sys, alg2, workload::makeChurnTrace(cc, sys.numTags(), kSeed), so);
    EXPECT_EQ(res.stop, McsStop::kCheckFailed);
    EXPECT_EQ(res.slots, 0) << "must stop before committing any slot";
  }
}

class StreamCkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid suffix: ctest -j cases are separate processes sharing one cwd.
    dir_ = "stream_ckpt_tmp." + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }
  std::string dir_;
};

struct StreamRunOut {
  StreamingCheckpointedRun run;
  std::string metrics;
};

StreamRunOut runStreamOnce(const workload::ChurnTrace& trace,
                           const std::string& ckpt_path, bool resume,
                           int slot_cap, obs::TraceSink* sink = nullptr) {
  core::System sys = test::smallRandomSystem(kSeed + 5, 16, 120, 50.0);
  const graph::InterferenceGraph g(sys);  // scheduler keeps a reference
  GrowthScheduler alg2(g);
  obs::MetricsRegistry reg;
  StreamingOptions so;
  so.metrics = &reg;
  so.trace = sink;
  ckpt::RunBudget budget;
  if (slot_cap > 0) {
    budget.setSlotCap(slot_cap);
    so.budget = &budget;
  }
  ckpt::CheckpointSetup setup;
  setup.path = ckpt_path;
  setup.resume = resume;
  setup.seed = kSeed;
  setup.snapshot_every = 2;
  StreamRunOut out;
  out.run = runStreamingCheckpointed(sys, alg2, trace, so, setup);
  std::ostringstream os;
  reg.writeJson(os);
  out.metrics = os.str();
  return out;
}

workload::ChurnTrace ckptTrace() {
  workload::ChurnConfig cc;
  cc.arrival_rate = 4.0;
  cc.depart_rate = 1.0;
  cc.slots = 30;
  cc.region_side = 50.0;
  return workload::makeChurnTrace(cc, 120, kSeed);
}

TEST_F(StreamCkptTest, InterruptThenResumeIsBitIdentical) {
  const workload::ChurnTrace trace = ckptTrace();
  const StreamRunOut base =
      runStreamOnce(trace, path("base"), /*resume=*/false, /*slot_cap=*/0);
  ASSERT_TRUE(base.run.ok) << base.run.error;
  ASSERT_GT(base.run.result.slots, 3) << "scenario too easy to test resume";

  const StreamRunOut cut =
      runStreamOnce(trace, path("cut"), /*resume=*/false, /*slot_cap=*/3);
  ASSERT_TRUE(cut.run.ok) << cut.run.error;
  ASSERT_TRUE(cut.run.result.interrupted);
  EXPECT_EQ(cut.run.result.slots, 3);

  const StreamRunOut res =
      runStreamOnce(trace, path("cut"), /*resume=*/true, /*slot_cap=*/0);
  ASSERT_TRUE(res.run.ok) << res.run.error;
  EXPECT_TRUE(res.run.resumed);
  EXPECT_EQ(res.run.replayed_slots, 3);

  const StreamingResult& a = base.run.result;
  const StreamingResult& b = res.run.result;
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.stream_slots, b.stream_slots);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  EXPECT_EQ(a.tags_read, b.tags_read);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t q = 0; q < a.schedule.size(); ++q) {
    EXPECT_EQ(a.schedule[q].active, b.schedule[q].active) << "slot " << q;
    EXPECT_EQ(a.schedule[q].tags_read, b.schedule[q].tags_read)
        << "slot " << q;
  }
  EXPECT_EQ(base.metrics, res.metrics);
}

TEST_F(StreamCkptTest, ResumedStreamTracesItsReplay) {
  // Like a resumed static run, a resumed stream closes its trace with one
  // ckpt.replay instant counting the slots it re-verified.
  const workload::ChurnTrace trace = ckptTrace();
  ASSERT_TRUE(runStreamOnce(trace, path("r"), /*resume=*/false,
                            /*slot_cap=*/3)
                  .run.ok);
  obs::TraceSink sink;
  const StreamRunOut res = runStreamOnce(trace, path("r"), /*resume=*/true,
                                         /*slot_cap=*/0, &sink);
  ASSERT_TRUE(res.run.ok) << res.run.error;
  int replays = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.name != "ckpt.replay") continue;
    ++replays;
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].second, 3.0);
  }
  EXPECT_EQ(replays, 1);
}

TEST_F(StreamCkptTest, JournalIdentityIncludesTheChurnTrace) {
  const workload::ChurnTrace trace = ckptTrace();
  const StreamRunOut base =
      runStreamOnce(trace, path("j"), /*resume=*/false, /*slot_cap=*/3);
  ASSERT_TRUE(base.run.ok) << base.run.error;

  // Same deployment, same seed, different churn: resume must fail closed.
  workload::ChurnConfig other;
  other.arrival_rate = 9.0;
  other.slots = 30;
  other.region_side = 50.0;
  const workload::ChurnTrace different =
      workload::makeChurnTrace(other, 120, kSeed);
  const StreamRunOut bad =
      runStreamOnce(different, path("j"), /*resume=*/true, /*slot_cap=*/0);
  EXPECT_FALSE(bad.run.ok);
  EXPECT_NE(bad.run.error.find("churn"), std::string::npos) << bad.run.error;
}

}  // namespace
}  // namespace rfid::sched
