// Dynamic tag arrival tests: the streaming driver fed an arrivals-only churn
// trace over a floor that starts empty — trace generation, conservation
// laws of the run, latency accounting, and drain behavior.
#include <gtest/gtest.h>

#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/streaming.h"
#include "workload/churn.h"
#include "workload/deployment.h"

namespace rfid::workload {
namespace {

struct ArrivalConfig {
  double arrival_rate = 8.0;  // mean new tags per slot (Poisson)
  int arrival_slots = 10;     // slots during which arrivals occur
  int drain_slots = 200;      // extra busy slots allowed after arrivals stop
  DeploymentConfig deploy;    // readers only; the floor starts empty
};

ArrivalConfig smallConfig() {
  ArrivalConfig cfg;
  cfg.deploy.num_readers = 15;
  cfg.deploy.region_side = 50.0;
  cfg.deploy.lambda_R = 9.0;
  cfg.deploy.lambda_r = 5.0;
  return cfg;
}

/// The readers over an empty floor plus the trace of every future arrival.
struct Arrivals {
  core::System sys;
  ChurnTrace trace;
};

Arrivals makeArrivals(const ArrivalConfig& cfg, std::uint64_t seed) {
  ChurnConfig cc;
  cc.arrival_rate = cfg.arrival_rate;
  cc.slots = cfg.arrival_slots;
  cc.region_side = cfg.deploy.region_side;
  return {core::System(uniformReaders(cfg.deploy, Rng(seed).split("readers")),
                       {}),
          makeChurnTrace(cc, 0, seed)};
}

/// Streams `a` through `scheduler`; `backlog` (optional) receives the unread
/// coverable tags left after each busy slot.
sched::StreamingResult run(Arrivals& a, sched::OneShotScheduler& scheduler,
                           const ArrivalConfig& cfg,
                           std::vector<int>* backlog = nullptr) {
  sched::StreamingOptions opt;
  opt.max_slots = cfg.arrival_slots + cfg.drain_slots;
  if (backlog != nullptr) {
    opt.on_commit = [&a, backlog](int, std::span<const int>,
                                  std::span<const int>) {
      backlog->push_back(a.sys.unreadCoverableCount());
    };
  }
  return sched::runStreamingMcs(a.sys, scheduler, a.trace, opt);
}

int coverableArrivals(const sched::StreamingResult& res) {
  return res.arrived - res.uncoverable;
}

TEST(Dynamic, InstanceIsDeterministicAndParked) {
  const ArrivalConfig cfg = smallConfig();
  const Arrivals a = makeArrivals(cfg, 11);
  const Arrivals b = makeArrivals(cfg, 11);
  EXPECT_EQ(a.trace.events, b.trace.events);
  EXPECT_EQ(a.sys.numTags(), 0);
  for (const ChurnEvent& e : a.trace.events) {
    EXPECT_EQ(e.kind, ChurnKind::kArrive);
  }
}

TEST(Dynamic, ArrivalSlotsWithinWindow) {
  const ArrivalConfig cfg = smallConfig();
  const Arrivals a = makeArrivals(cfg, 12);
  for (const ChurnEvent& e : a.trace.events) {
    EXPECT_GE(e.slot, 0);
    EXPECT_LT(e.slot, cfg.arrival_slots);
  }
  // Poisson(8) over 10 slots: expect ~80 tags, loosely banded.
  EXPECT_GT(a.trace.events.size(), 40u);
  EXPECT_LT(a.trace.events.size(), 140u);
}

TEST(Dynamic, SimulationConservesTags) {
  const ArrivalConfig cfg = smallConfig();
  Arrivals a = makeArrivals(cfg, 13);
  sched::HillClimbingScheduler ghc;
  std::vector<int> backlog;
  const sched::StreamingResult res = run(a, ghc, cfg, &backlog);
  EXPECT_EQ(res.arrived, a.sys.numTags());
  EXPECT_LE(res.tags_read, coverableArrivals(res));
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.tags_read, coverableArrivals(res));  // drained = all served
  EXPECT_EQ(static_cast<int>(backlog.size()), res.slots);
  EXPECT_EQ(res.stream_slots, res.slots + res.idle_slots);
}

TEST(Dynamic, LatencyIsNonNegativeAndBounded) {
  const ArrivalConfig cfg = smallConfig();
  Arrivals a = makeArrivals(cfg, 14);
  sched::HillClimbingScheduler ghc;
  const sched::StreamingResult res = run(a, ghc, cfg);
  EXPECT_GE(res.latency_mean, 0.0);
  EXPECT_LT(res.latency_mean, res.stream_slots);
}

TEST(Dynamic, BacklogNeverExceedsPresentTags) {
  const ArrivalConfig cfg = smallConfig();
  Arrivals a = makeArrivals(cfg, 15);
  sched::HillClimbingScheduler ghc;
  const sched::StreamingResult res = run(a, ghc, cfg);
  EXPECT_LE(res.backlog_peak, res.arrived);
  EXPECT_GT(res.backlog_peak, 0);
}

TEST(Dynamic, HigherRateMeansMoreBacklog) {
  ArrivalConfig low = smallConfig();
  ArrivalConfig high = smallConfig();
  high.arrival_rate = 40.0;
  Arrivals a = makeArrivals(low, 16);
  Arrivals b = makeArrivals(high, 16);
  sched::HillClimbingScheduler ghc1, ghc2;
  const sched::StreamingResult ra = run(a, ghc1, low);
  const sched::StreamingResult rb = run(b, ghc2, high);
  EXPECT_GT(rb.backlog_peak, ra.backlog_peak);
}

TEST(Dynamic, ZeroArrivalRateIsSafeAndEmpty) {
  // poisson(0) is UB in the raw distribution; the generator must treat a
  // zero rate as "no arrivals", and the stream must cope with an empty
  // field (no served tags, latency defined as 0, immediate drain).
  ArrivalConfig cfg = smallConfig();
  cfg.arrival_rate = 0.0;
  Arrivals a = makeArrivals(cfg, 18);
  EXPECT_TRUE(a.trace.empty());
  sched::HillClimbingScheduler ghc;
  const sched::StreamingResult res = run(a, ghc, cfg);
  EXPECT_EQ(res.arrived, 0);
  EXPECT_EQ(res.tags_read, 0);
  EXPECT_EQ(res.latency_mean, 0.0);
  EXPECT_TRUE(res.drained);
  EXPECT_LE(res.stream_slots, cfg.arrival_slots + 1);
}

TEST(Dynamic, AllUncoverableArrivalsDrainWithoutService) {
  // Every arrival lands outside the lone reader's interrogation disk: the
  // loop must neither serve nor stall forever, and latency_mean must stay
  // defined at tags_read == 0.
  std::vector<core::Reader> readers;
  core::Reader r;
  r.pos = {0.0, 0.0};
  r.interference_radius = 2.0;
  r.interrogation_radius = 1.0;
  readers.push_back(r);
  ChurnTrace trace;
  for (int i = 0; i < 6; ++i) {
    ChurnEvent e;
    e.slot = i / 2;
    e.pos = {100.0 + i, 100.0};  // far outside coverage
    e.epc = static_cast<std::uint64_t>(i);
    trace.events.push_back(e);
  }
  trace.horizon = 3;
  Arrivals a{core::System(std::move(readers), {}), std::move(trace)};

  ArrivalConfig cfg;
  cfg.arrival_slots = 3;
  cfg.drain_slots = 5;
  sched::HillClimbingScheduler ghc;
  const sched::StreamingResult res = run(a, ghc, cfg);
  EXPECT_EQ(res.arrived, 6);
  EXPECT_EQ(coverableArrivals(res), 0);
  EXPECT_EQ(res.tags_read, 0);
  EXPECT_EQ(res.latency_mean, 0.0);
  EXPECT_EQ(res.backlog_peak, 0);
  EXPECT_TRUE(res.drained);
  EXPECT_LE(res.stream_slots, cfg.arrival_slots + 1);
}

TEST(Dynamic, WorksWithGraphBasedScheduler) {
  const ArrivalConfig cfg = smallConfig();
  Arrivals a = makeArrivals(cfg, 17);
  const graph::InterferenceGraph g(a.sys);
  sched::GrowthScheduler alg2(g);
  const sched::StreamingResult res = run(a, alg2, cfg);
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.tags_read, coverableArrivals(res));
}

}  // namespace
}  // namespace rfid::workload
