// Randomized invariant sweeps ("fuzz"): hammer every scheduler over many
// random instances and assert the referee-level invariants that must hold
// regardless of algorithm quality.
#include <gtest/gtest.h>

#include <algorithm>

#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "sched/qlearning.h"
#include "test_helpers.h"

namespace rfid {
namespace {

/// Invariants of a single slot outcome (`channel`: the proposal's channels,
/// empty for the single-channel model).
void checkSlotInvariants(const core::System& sys, std::span<const int> active,
                         std::span<const int> channel,
                         std::span<const int> served) {
  // Served tags are unread, covered by exactly one active reader, and that
  // reader is not an RTc victim of a same-channel active reader —
  // re-derived from first principles here, independently of System's
  // implementation.
  const auto chan = [&](std::size_t i) {
    return channel.empty() ? 0 : channel[i];
  };
  for (const int t : served) {
    ASSERT_FALSE(sys.isRead(t));
    int coverers = 0;
    std::size_t owner = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::vector<int> cov = test::coveredTags(sys, active[i]);
      if (std::binary_search(cov.begin(), cov.end(), t)) {
        ++coverers;
        owner = i;
      }
    }
    ASSERT_EQ(coverers, 1) << "tag " << t;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (i == owner || chan(i) != chan(owner)) continue;
      const double ru = sys.reader(active[i]).interference_radius;
      ASSERT_GT(geom::dist(sys.reader(active[owner]).pos,
                           sys.reader(active[i]).pos),
                ru)
          << "owner " << active[owner] << " is an RTc victim of "
          << active[i];
    }
  }
  // No duplicates in the active set.
  std::vector<int> sorted(active.begin(), active.end());
  std::sort(sorted.begin(), sorted.end());
  ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, AllSchedulersSatisfySlotInvariants) {
  core::System sys = test::smallRandomSystem(GetParam(), 22, 140, 55.0);
  const graph::InterferenceGraph g(sys);

  sched::PtasScheduler alg1;
  sched::GrowthScheduler alg2(g);
  dist::GrowthDistributedScheduler alg3(g);
  sched::HillClimbingScheduler ghc;
  dist::ColorwaveScheduler ca(sys, GetParam());
  sched::QLearningScheduler hiq(GetParam());
  sched::MultiChannelScheduler mc(sched::ChannelOptions{2});

  const std::vector<sched::OneShotScheduler*> all = {&alg1, &alg2, &alg3,
                                                     &ghc, &ca, &hiq, &mc};
  for (sched::OneShotScheduler* s : all) {
    sys.resetReads();
    // Run several slots, mutating read state, checking each outcome.
    for (int slot = 0; slot < 4; ++slot) {
      const sched::OneShotResult one = s->schedule(sys);
      // MC's proposals carry their channels: the referee counts them in the
      // channel model, and the claimed weight must match that count exactly.
      const auto served = sys.wellCoveredTags(one.readers, {}, one.channel);
      checkSlotInvariants(sys, one.readers, one.channel, served);
      ASSERT_EQ(one.weight, static_cast<int>(served.size())) << s->name();
      sys.markRead(served);
    }
  }
}

TEST_P(FuzzSweep, OurAlgorithmsAlwaysProposeFeasibleSets) {
  core::System sys = test::smallRandomSystem(GetParam() ^ 0xf00d, 20, 120);
  const graph::InterferenceGraph g(sys);
  sched::PtasScheduler alg1;
  sched::GrowthScheduler alg2(g);
  dist::GrowthDistributedScheduler alg3(g);
  for (int slot = 0; slot < 3; ++slot) {
    for (sched::OneShotScheduler* s :
         std::vector<sched::OneShotScheduler*>{&alg1, &alg2, &alg3}) {
      const auto res = s->schedule(sys);
      ASSERT_TRUE(sys.isFeasible(res.readers)) << s->name();
    }
    sys.markRead(sys.wellCoveredTags(alg2.schedule(sys).readers));
  }
}

TEST_P(FuzzSweep, McsNeverLosesTags) {
  core::System sys = test::smallRandomSystem(GetParam() ^ 0xbeef, 18, 130);
  const int coverable = sys.unreadCoverableCount();
  sched::HillClimbingScheduler ghc;
  const sched::McsResult res = sched::runCoveringSchedule(sys, ghc);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.tags_read, coverable);
  // Re-running on a finished system is a no-op.
  const sched::McsResult again = sched::runCoveringSchedule(sys, ghc);
  ASSERT_EQ(again.slots, 0);
}

// Default 10 seeds; RFIDSCHED_TEST_ITERS widens or narrows the sweep.
INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzSweep,
    ::testing::Range<std::uint64_t>(
        7000, 7000 + static_cast<std::uint64_t>(test::iterBudget(10))));

}  // namespace
}  // namespace rfid
