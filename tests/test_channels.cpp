// Multi-channel scheduling tests (§VII extension): channel feasibility,
// the System referee's channel model, and monotonicity in the channel
// count.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "check/invariants.h"
#include "fault/fault_plan.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "reference_paths.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "test_helpers.h"
#include "workload/scenario.h"

namespace rfid::sched {
namespace {

using test::makeReader;
using test::makeTag;

TEST(Channels, FeasibilityRequiresIndependenceOnlyWithinChannel) {
  std::vector<core::Reader> readers = {makeReader(0, 0, 10.0, 4.0),
                                       makeReader(5, 0, 10.0, 4.0)};
  const core::System sys(std::move(readers), {makeTag(1, 0)});
  const std::vector<int> both = {0, 1};
  EXPECT_NE(test::ref::firstDependentPair(sys, both, std::vector<int>{0, 0}),
            std::nullopt);
  EXPECT_EQ(test::ref::firstDependentPair(sys, both, std::vector<int>{0, 1}),
            std::nullopt);
}

TEST(Channels, RefereeRemovesRtcOnlyWithinChannel) {
  // Two mutually interfering readers, each with an exclusive tag.
  std::vector<core::Reader> readers = {makeReader(0, 0, 10.0, 3.0),
                                       makeReader(5, 0, 10.0, 3.0)};
  std::vector<core::Tag> tags = {makeTag(-2, 0), makeTag(7, 0)};
  const core::System sys(std::move(readers), std::move(tags));
  const std::vector<int> both = {0, 1};
  // Same channel: mutual RTc, nothing read (matches System::weight).
  EXPECT_TRUE(sys.wellCoveredTags(both, {}, std::vector<int>{0, 0}).empty());
  EXPECT_EQ(sys.weight(both), 0);
  // Different channels: both read their exclusive tag.
  EXPECT_EQ(sys.wellCoveredTags(both, {}, std::vector<int>{0, 1}),
            (std::vector<int>{0, 1}));
}

TEST(Channels, RrcPersistsAcrossChannels) {
  // Independent-but-overlapping interrogation regions: the shared tag is
  // lost no matter the channels (the tag cannot separate the signals).
  const core::System sys = test::figure2System();
  const std::vector<int> ab = {0, 1};  // A and B share Tag2
  const auto served = sys.wellCoveredTags(ab, {}, std::vector<int>{0, 1});
  EXPECT_TRUE(std::find(served.begin(), served.end(), 1) == served.end());
}

TEST(Channels, SingleChannelMatchesSystemReferee) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const core::System sys = test::smallRandomSystem(seed, 15, 100, 50.0);
    workload::Rng rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<int> x;
      for (int v = 0; v < sys.numReaders(); ++v) {
        if (rng.bernoulli(0.25)) x.push_back(v);
      }
      const std::vector<int> chan(x.size(), 0);
      EXPECT_EQ(sys.wellCoveredTags(x, {}, chan), sys.wellCoveredTags(x));
    }
  }
}

TEST(Channels, SchedulerAssignmentsAreChannelFeasible) {
  for (const std::uint64_t seed : {4u, 8u, 12u}) {
    const core::System sys = test::smallRandomSystem(seed, 20, 120, 50.0);
    MultiChannelScheduler mc(ChannelOptions{3});
    const OneShotResult res = mc.schedule(sys);
    EXPECT_EQ(test::ref::firstDependentPair(sys, res.readers, res.channel),
              std::nullopt);
    for (const int c : res.channel) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 3);
    }
    EXPECT_GT(res.weight, 0);
  }
}

TEST(Channels, OneChannelEqualsGhc) {
  for (const std::uint64_t seed : {5u, 10u}) {
    const core::System sys = test::smallRandomSystem(seed, 18, 110, 50.0);
    MultiChannelScheduler mc(ChannelOptions{1});
    HillClimbingScheduler ghc;
    EXPECT_EQ(mc.schedule(sys).weight, ghc.schedule(sys).weight);
  }
}

TEST(Channels, FewerThanOneChannelThrows) {
  // Fails closed in every build type: a zero-channel climb would index an
  // empty blocked-channel table.
  EXPECT_THROW(MultiChannelScheduler(ChannelOptions{0}), std::invalid_argument);
  EXPECT_THROW(MultiChannelScheduler(ChannelOptions{-1}), std::invalid_argument);
  EXPECT_NO_THROW(MultiChannelScheduler(ChannelOptions{1}));
}

TEST(Channels, MoreChannelsNeverHurtOnBatch) {
  double w1 = 0, w2 = 0, w4 = 0;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const core::System sys = test::smallRandomSystem(seed, 20, 120, 40.0);
    MultiChannelScheduler a(ChannelOptions{1}), b(ChannelOptions{2}),
        c(ChannelOptions{4});
    w1 += a.schedule(sys).weight;
    w2 += b.schedule(sys).weight;
    w4 += c.schedule(sys).weight;
  }
  EXPECT_GE(w2, w1);
  EXPECT_GE(w4, w2 * 0.98);  // saturation allowed, regression not
}

TEST(Channels, ChanneledMcsCompletes) {
  core::System sys = test::smallRandomSystem(30, 18, 120, 45.0);
  MultiChannelScheduler mc(ChannelOptions{2});
  const McsResult res = runCoveringSchedule(sys, mc);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(sys.unreadCoverableCount(), 0);
  EXPECT_GT(res.tags_read, 0);
}

TEST(Channels, MultiChannelSchedulerRecordsMetricsAndCost) {
  // Like GHC: one schedule call per slot, the lazy queue's work units as
  // weight evaluations, its picks as candidates, and its own cost phases.
  core::System sys = workload::makeSystem(workload::paperScenario(10, 4), 1);
  obs::MetricsRegistry reg;
  obs::CostLedger ledger;
  MultiChannelScheduler mc(ChannelOptions{2});
  mc.attachMetrics(&reg);
  mc.attachCost(&ledger);
  McsOptions opt;
  opt.cost = &ledger;
  const McsResult res = runCoveringSchedule(sys, mc, opt);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(reg.counter("sched.schedule_calls").value(), res.slots);
  EXPECT_GT(reg.counter("sched.weight_evals").value(), 0);
  std::int64_t picks = 0;
  for (const SlotRecord& slot : res.schedule) {
    picks += static_cast<std::int64_t>(slot.active.size());
  }
  EXPECT_EQ(reg.counter("sched.candidates").value(), picks);
  const obs::CostBill* phase = ledger.phase("mc.selection");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->queue_work, reg.counter("sched.weight_evals").value());
}

TEST(Channels, PaperDefaultMcsPassesTheStrictValidator) {
  // The paper-default deployment (seed 1, 315 coverable tags) through the
  // one MCS driver: the proposals carry their channels, so the referee and
  // the validator judge feasibility and weight in the channel model, with
  // no exemption for the multi-channel scheduler.
  core::System sys = workload::makeSystem(workload::paperScenario(10, 4), 1);
  ASSERT_EQ(sys.unreadCoverableCount(), 315);
  check::CheckOptions co;
  co.expect_feasible = true;
  co.expect_exact_weight = true;
  check::ScheduleValidator validator(co);
  McsOptions opt;
  opt.validator = &validator;
  MultiChannelScheduler mc(ChannelOptions{2});
  const McsResult res = runCoveringSchedule(sys, mc, opt);
  EXPECT_EQ(res.slots, 3);
  EXPECT_EQ(res.tags_read, 315);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.stop, McsStop::kNone);
  EXPECT_TRUE(validator.ok());
  EXPECT_EQ(validator.slotsChecked(), 3);
  for (const SlotRecord& slot : res.schedule) {
    EXPECT_EQ(slot.channel.size(), slot.active.size());
  }
}

TEST(Channels, LoudJammerIsChannelBlind) {
  // Two mutually interfering readers, each with an exclusive tag: MC2 puts
  // them on different channels.  When reader 1 crashes loud, its stuck
  // transmitter victimizes reader 0 whatever reader 0's channel — in the
  // referee, the slot step, the validator and the orphan count alike.
  const auto twoReaders = [] {
    return core::System({makeReader(0, 0, 10.0, 3.0), makeReader(5, 0, 10.0, 3.0)},
                        {makeTag(-2, 0), makeTag(7, 0)});
  };
  {
    const core::System sys = twoReaders();
    const std::vector<int> live = {0};
    const std::vector<int> jam = {1};
    EXPECT_TRUE(sys.wellCoveredTags(live, jam, std::vector<int>{0}).empty());
    EXPECT_TRUE(sys.wellCoveredTags(live, jam, std::vector<int>{1}).empty());
  }
  {
    // Transient loud crash: slot 0 serves nothing although its proposal
    // is channel-feasible, then both tags are read.
    core::System sys = twoReaders();
    fault::FaultPlan plan;
    plan.addCrash(1, 0, 3, /*loud=*/true);
    check::CheckOptions co;
    co.faults = &plan;
    check::ScheduleValidator validator(co);
    McsOptions opt;
    opt.faults = &plan;
    opt.validator = &validator;
    MultiChannelScheduler mc(ChannelOptions{2});
    const McsResult res = runCoveringSchedule(sys, mc, opt);
    ASSERT_FALSE(res.schedule.empty());
    EXPECT_EQ(res.schedule[0].channel, (std::vector<int>{0, 1}));
    EXPECT_EQ(res.schedule[0].tags_read, 0);
    EXPECT_GE(res.degradation.slots_lost, 1);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tags_read, 2);
    EXPECT_TRUE(validator.ok());
  }
  {
    // Permanent loud crash: reader 0 is a victim forever, so both tags are
    // orphaned before the first slot.
    core::System sys = twoReaders();
    fault::FaultPlan plan;
    plan.addCrash(1, 0, -1, /*loud=*/true);
    check::CheckOptions co;
    co.faults = &plan;
    check::ScheduleValidator validator(co);
    McsOptions opt;
    opt.faults = &plan;
    opt.validator = &validator;
    MultiChannelScheduler mc(ChannelOptions{2});
    const McsResult res = runCoveringSchedule(sys, mc, opt);
    EXPECT_EQ(res.slots, 0);
    EXPECT_EQ(res.degradation.tags_orphaned, 2);
    EXPECT_FALSE(res.completed);
    EXPECT_TRUE(validator.ok());
  }
}

TEST(Channels, MoreChannelsShrinkSchedulesOnBatch) {
  double s1 = 0, s4 = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    core::System sys = test::smallRandomSystem(seed, 20, 120, 40.0);
    MultiChannelScheduler a(ChannelOptions{1});
    s1 += runCoveringSchedule(sys, a).slots;
    sys.resetReads();
    MultiChannelScheduler b(ChannelOptions{4});
    s4 += runCoveringSchedule(sys, b).slots;
  }
  EXPECT_LE(s4, s1);
}

}  // namespace
}  // namespace rfid::sched
