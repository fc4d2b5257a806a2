// k-coloring channel baseline tests ([13]): pinned palette, channel-aware
// referee agreement, and its known blind spot (RRc overlap tags).
#include <gtest/gtest.h>

#include "distributed/kcoloring.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "reference_paths.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::dist {
namespace {

TEST(KColoring, ActivatesEveryoneWithinPalette) {
  const core::System sys = test::smallRandomSystem(1, 20, 120, 50.0);
  KColoringScheduler kc(sys, 4, 1);
  const sched::OneShotResult res = kc.schedule(sys);
  EXPECT_EQ(static_cast<int>(res.readers.size()), sys.numReaders());
  for (const int c : res.channel) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 4);
  }
}

TEST(KColoring, RecordsMetricsAndCost) {
  // Billed as Colorwave bills itself: one referee evaluation per call, the
  // channels in use as candidates, the protocol traffic in its own phase.
  const core::System sys = test::smallRandomSystem(4, 20, 120, 50.0);
  obs::MetricsRegistry reg;
  obs::CostLedger ledger;
  KColoringScheduler kc(sys, 4, 4);
  kc.attachMetrics(&reg);
  kc.attachCost(&ledger);
  const sched::OneShotResult a = kc.schedule(sys);
  (void)kc.schedule(sys);
  EXPECT_EQ(reg.counter("sched.schedule_calls").value(), 2);
  EXPECT_EQ(reg.counter("sched.weight_evals").value(), 2);
  EXPECT_GE(reg.counter("sched.candidates").value(), 2);
  EXPECT_LE(reg.counter("sched.candidates").value(), 8);
  const obs::CostBill* phase = ledger.phase("kcol.protocol");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->weight_evals, 2);
  EXPECT_GT(phase->net_messages, 0);
  EXPECT_GT(phase->net_rounds, 0);
  EXPECT_EQ(static_cast<int>(a.readers.size()), sys.numReaders());
}

TEST(KColoring, WeightMatchesChanneledReferee) {
  const core::System sys = test::smallRandomSystem(2, 18, 110, 50.0);
  KColoringScheduler kc(sys, 4, 2);
  const sched::OneShotResult res = kc.schedule(sys);
  // The weight comes from the System referee; hold it to raw geometry.
  EXPECT_EQ(res.weight,
            static_cast<int>(
                test::ref::geometricServed(sys, res.readers, res.channel).size()));
}

TEST(KColoring, EnoughChannelsConverge) {
  // Generous palette: the sensing graph is easily colorable and the
  // protocol should settle into a proper coloring.
  const core::System sys = test::smallRandomSystem(3, 15, 60, 60.0);
  KColoringScheduler kc(sys, 32, 3);
  (void)kc.schedule(sys);
  EXPECT_TRUE(kc.converged());
}

TEST(KColoring, MoreChannelsMoreWeightOnBatch) {
  double w2 = 0, w8 = 0;
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    const core::System sys = test::smallRandomSystem(seed, 20, 130, 45.0);
    KColoringScheduler a(sys, 2, seed), b(sys, 8, seed);
    w2 += a.schedule(sys).weight;
    w8 += b.schedule(sys).weight;
  }
  EXPECT_GE(w8, w2);
}

TEST(KColoring, RrcBlindSpotLeavesOverlapTagsUnread) {
  // The Figure-2 instance: every tag in an interrogation overlap is
  // invisible to pure channel assignment — all readers are always on.
  core::System sys = test::figure2System();
  KColoringScheduler kc(sys, 8, 7);
  const auto res = kc.schedule(sys);
  const auto served = sys.wellCoveredTags(res.readers, {}, res.channel);
  // Tags 2 and 3 (indices 1, 2) sit in overlaps and cannot be served.
  EXPECT_TRUE(std::find(served.begin(), served.end(), 1) == served.end());
  EXPECT_TRUE(std::find(served.begin(), served.end(), 2) == served.end());
  // The exclusive tags are served once the palette separates the readers.
  EXPECT_EQ(res.weight, 3);
}

TEST(KColoring, ChanneledMcsReportsHonestIncompleteness) {
  // With overlap tags unreachable, the MCS driver must stop and report
  // incompleteness rather than loop forever.
  core::System sys = test::figure2System();
  KColoringScheduler kc(sys, 8, 8);
  sched::McsOptions opt;
  opt.max_slots = 2000;
  const sched::McsResult res = sched::runCoveringSchedule(sys, kc, opt);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.tags_read, 3);
}

}  // namespace
}  // namespace rfid::dist
