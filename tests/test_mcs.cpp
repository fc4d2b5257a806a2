// MCS driver tests: termination, completeness, schedule accounting, and
// stall protection.
#include <gtest/gtest.h>

#include "graph/interference_graph.h"
#include "sched/exact.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "test_helpers.h"

namespace rfid::sched {
namespace {

TEST(Mcs, ReadsEveryCoverableTag) {
  core::System sys = test::smallRandomSystem(1, 15, 120, 50.0);
  HillClimbingScheduler ghc;
  const McsResult res = runCoveringSchedule(sys, ghc);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(sys.unreadCoverableCount(), 0);
  EXPECT_EQ(res.tags_read + res.uncoverable, sys.numTags());
  EXPECT_EQ(res.slots, static_cast<int>(res.schedule.size()));
}

TEST(Mcs, SlotRecordsSumToTotal) {
  core::System sys = test::smallRandomSystem(2, 15, 120, 50.0);
  HillClimbingScheduler ghc;
  const McsResult res = runCoveringSchedule(sys, ghc);
  int sum = 0;
  for (const SlotRecord& s : res.schedule) sum += s.tags_read;
  EXPECT_EQ(sum, res.tags_read);
}

TEST(Mcs, UncoverableTagsExcludedFromRequirement) {
  // One reader, two tags, one far outside any interrogation region.
  std::vector<core::Reader> readers = {test::makeReader(0, 0, 5.0, 3.0)};
  std::vector<core::Tag> tags = {test::makeTag(1, 0), test::makeTag(90, 90)};
  core::System sys(std::move(readers), std::move(tags));
  HillClimbingScheduler ghc;
  const McsResult res = runCoveringSchedule(sys, ghc);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.tags_read, 1);
  EXPECT_EQ(res.uncoverable, 1);
  EXPECT_EQ(res.slots, 1);
}

TEST(Mcs, AlreadyDoneSystemNeedsZeroSlots) {
  core::System sys = test::figure2System();
  for (int t = 0; t < sys.numTags(); ++t) sys.markRead(t);
  HillClimbingScheduler ghc;
  const McsResult res = runCoveringSchedule(sys, ghc);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.slots, 0);
}

TEST(Mcs, Figure2NeedsTwoSlotsWithExact) {
  core::System sys = test::figure2System();
  ExactScheduler exact;
  const McsResult res = runCoveringSchedule(sys, exact);
  EXPECT_TRUE(res.completed);
  // Slot 1: {A, C} reads 4 tags; slot 2: B reads Tag5.
  EXPECT_EQ(res.slots, 2);
  EXPECT_EQ(res.schedule[0].tags_read, 4);
  EXPECT_EQ(res.schedule[1].tags_read, 1);
}

/// A scheduler that always proposes nothing — must trip stall protection.
class UselessScheduler final : public OneShotScheduler {
 public:
  std::string name() const override { return "Useless"; }
  OneShotResult schedule(const core::System&) override { return {}; }
};

TEST(Mcs, StallGuardAborts) {
  core::System sys = test::figure2System();
  UselessScheduler useless;
  McsOptions opt;
  opt.max_stall = 10;
  const McsResult res = runCoveringSchedule(sys, useless, opt);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.slots, 10);
  EXPECT_EQ(res.tags_read, 0);
}

/// Always proposes *every* reader — never empty, but on a system built of
/// co-located readers the proposal is permanently infeasible: every tag
/// sits in two interrogation disks, so the referee serves nothing.
class EveryoneScheduler final : public OneShotScheduler {
 public:
  std::string name() const override { return "Everyone"; }
  OneShotResult schedule(const core::System& sys) override {
    OneShotResult r;
    for (int v = 0; v < sys.numReaders(); ++v) r.readers.push_back(v);
    r.weight = sys.numTags();  // a lie; the referee must not believe it
    return r;
  }
};

TEST(Mcs, InfeasibleProposalsTripStallGuardNotTheSlotCap) {
  // Two co-located readers, every tag covered by both.  A lone reader would
  // finish in one slot, but the adversarial scheduler activates both each
  // slot, colliding every tag (RRc) forever.  The driver must terminate via
  // max_stall — not spin to max_slots — report completed == false, and the
  // stall counter must equal the executed zero-progress slots exactly.
  std::vector<core::Reader> readers = {test::makeReader(0, 0, 8.0, 4.0),
                                       test::makeReader(0.1, 0, 8.0, 4.0)};
  std::vector<core::Tag> tags = {test::makeTag(1, 0), test::makeTag(0, 1),
                                 test::makeTag(-1, -1)};
  core::System sys(std::move(readers), std::move(tags));

  EveryoneScheduler everyone;
  obs::MetricsRegistry reg;
  McsOptions opt;
  opt.max_stall = 12;
  opt.max_slots = 100000;
  opt.metrics = &reg;
  const McsResult res = runCoveringSchedule(sys, everyone, opt);

  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.slots, 12);
  EXPECT_EQ(res.tags_read, 0);
  EXPECT_EQ(sys.unreadCoverableCount(), 3);
  for (const SlotRecord& s : res.schedule) {
    EXPECT_EQ(s.active.size(), 2u);
    EXPECT_EQ(s.tags_read, 0);
  }
  EXPECT_EQ(reg.counter("mcs.stall_slots").value(), 12);
  EXPECT_EQ(reg.counter("mcs.slots").value(), 12);
  EXPECT_EQ(reg.counter("mcs.tags_read").value(), 0);
}

TEST(Mcs, MaxSlotsRespected) {
  core::System sys = test::smallRandomSystem(3, 15, 200, 40.0);
  HillClimbingScheduler ghc;
  McsOptions opt;
  opt.max_slots = 2;
  const McsResult res = runCoveringSchedule(sys, ghc, opt);
  EXPECT_LE(res.slots, 2);
}

// A better one-shot scheduler yields a schedule at most as long, on batch
// average — the core premise of the paper's Figure 6/7 comparison.
TEST(Mcs, BetterOneShotMeansFewerSlots) {
  double exact_slots = 0.0, ghc_slots = 0.0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    core::System sys = test::smallRandomSystem(seed, 12, 100, 40.0);
    ExactScheduler exact;
    const McsResult a = runCoveringSchedule(sys, exact);
    EXPECT_TRUE(a.completed);
    exact_slots += a.slots;

    sys.resetReads();
    HillClimbingScheduler ghc;
    const McsResult b = runCoveringSchedule(sys, ghc);
    EXPECT_TRUE(b.completed);
    ghc_slots += b.slots;
  }
  EXPECT_LE(exact_slots, ghc_slots + 1.0);  // ties allowed, regressions not
}

TEST(Mcs, WorksWithEverySchedulerFamily) {
  core::System sys = test::smallRandomSystem(4, 18, 120, 60.0);
  const graph::InterferenceGraph g(sys);

  PtasScheduler ptas;
  EXPECT_TRUE(runCoveringSchedule(sys, ptas).completed);

  sys.resetReads();
  GrowthScheduler alg2(g);
  EXPECT_TRUE(runCoveringSchedule(sys, alg2).completed);
}

}  // namespace
}  // namespace rfid::sched
