// Exact MCS tests, including the empirical validation of Theorem 1: the
// greedy MWFS loop stays within log n of the true minimum covering
// schedule, whose size test::ref::optimalCoveringScheduleSize computes
// (tests/reference_paths.h).
#include <gtest/gtest.h>

#include <cmath>

#include "reference_paths.h"
#include "sched/exact.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::sched {
namespace {

using test::ref::OptimalMcsResult;
using test::ref::optimalCoveringScheduleSize;

core::System tinySystem(std::uint64_t seed) {
  // Keep coverable tags ≤ 22 for the exact search.
  return test::smallRandomSystem(seed, 8, 20, 35.0);
}

TEST(OptimalMcs, EmptySystemNeedsZeroSlots) {
  const core::System sys({}, {});
  const OptimalMcsResult res = optimalCoveringScheduleSize(sys);
  EXPECT_EQ(res.slots, 0);
}

TEST(OptimalMcs, AllReadAlreadyZeroSlots) {
  core::System sys = test::figure2System();
  for (int t = 0; t < sys.numTags(); ++t) sys.markRead(t);
  EXPECT_EQ(optimalCoveringScheduleSize(sys).slots, 0);
}

TEST(OptimalMcs, Figure2OptimumIsTwoSlots) {
  core::System sys = test::figure2System();
  // {A,C} then {B} — no single feasible set serves all 5 (B's overlap).
  EXPECT_EQ(optimalCoveringScheduleSize(sys).slots, 2);
}

TEST(OptimalMcs, SingleReaderSingleSlot) {
  const core::System sys({test::makeReader(0, 0, 5.0, 3.0)},
                         {test::makeTag(1, 0), test::makeTag(0, 1)});
  EXPECT_EQ(optimalCoveringScheduleSize(sys).slots, 1);
}

TEST(OptimalMcs, BudgetExhaustionReportsMinusOne) {
  core::System sys = tinySystem(3);
  const OptimalMcsResult res = optimalCoveringScheduleSize(sys, 1);
  EXPECT_EQ(res.slots, -1);
}

// Greedy (exact per-slot MWFS) vs the true optimum: Theorem 1 promises a
// log n factor; on these tiny instances greedy is nearly always optimal,
// and must never beat the optimum.
class Theorem1Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Sweep, GreedyWithinLogFactorOfOptimal) {
  core::System sys = tinySystem(GetParam());
  const OptimalMcsResult opt = optimalCoveringScheduleSize(sys);
  ASSERT_GE(opt.slots, 0) << "exact search budget";

  ExactScheduler exact;
  const McsResult greedy = runCoveringSchedule(sys, exact);
  ASSERT_TRUE(greedy.completed);

  EXPECT_GE(greedy.slots, opt.slots);  // nobody beats the optimum
  const double n = sys.numReaders();
  const double bound = std::max(1.0, std::log2(n) + 1.0) * opt.slots;
  EXPECT_LE(greedy.slots, bound) << "opt=" << opt.slots;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Sweep,
                         ::testing::Range<std::uint64_t>(900, 912));

}  // namespace
}  // namespace rfid::sched
