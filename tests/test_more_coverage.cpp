// Edge-case batch: behaviors not covered by the per-module suites —
// protocol caps, Colorwave shrink probing, stream output, bounds.
#include <gtest/gtest.h>

#include <sstream>

#include "distributed/colorwave.h"
#include "geometry/disk.h"
#include "geometry/vec2.h"
#include "protocol/aloha.h"
#include "sched/mcs.h"
#include "sched/hill_climbing.h"
#include "test_helpers.h"

namespace rfid {
namespace {

TEST(MoreGeometry, DiskBounds) {
  const geom::Disk d{{3.0, -2.0}, 1.5};
  const geom::Aabb b = d.bounds();
  EXPECT_DOUBLE_EQ(b.lo.x, 1.5);
  EXPECT_DOUBLE_EQ(b.lo.y, -3.5);
  EXPECT_DOUBLE_EQ(b.hi.x, 4.5);
  EXPECT_DOUBLE_EQ(b.hi.y, -0.5);
  EXPECT_DOUBLE_EQ(b.width(), 3.0);
}

TEST(MoreGeometry, Vec2StreamOutput) {
  std::ostringstream os;
  os << geom::Vec2{1.5, -2.0};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

TEST(MoreProtocol, AlohaFrameCapReportsIncomplete) {
  workload::Rng rng(1);
  protocol::AlohaOptions opt;
  opt.max_frames = 1;
  opt.initial_frame = 2;  // 2 slots for 50 tags: cannot finish in 1 frame
  const protocol::AlohaResult res = protocol::runAloha(50, rng, opt);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.frames, 1);
  EXPECT_LT(res.tags_identified, 50);
}

TEST(MoreProtocol, AlohaFrameSizeStaysClamped) {
  workload::Rng rng(2);
  protocol::AlohaOptions opt;
  opt.initial_frame = 4096;  // above max
  opt.max_frame = 8;
  opt.min_frame = 2;
  const protocol::AlohaResult res = protocol::runAloha(20, rng, opt);
  EXPECT_TRUE(res.completed);
  // Every frame ≤ max_frame → micro_slots ≤ frames * max_frame.
  EXPECT_LE(res.micro_slots, static_cast<std::int64_t>(res.frames) * 8);
}

TEST(MoreColorwave, DownProbingShrinksOversizedPalette) {
  // Sparse graph colored with a huge initial palette: with shrink probing
  // enabled, maxColors should fall and the palette compact over time.
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {2, 3}};
  const graph::InterferenceGraph g(6, edges);
  std::vector<core::Reader> readers;
  for (int i = 0; i < 6; ++i) {
    readers.push_back(test::makeReader(i * 100.0, 0.0, 5.0));
  }
  const core::System sys(std::move(readers), {});

  dist::ColorwaveOptions opt;
  opt.initial_max_colors = 32;
  opt.down_threshold = 0.05;  // enable shrink probing
  opt.min_colors = 2;
  opt.settle_rounds = 4000;
  dist::ColorwaveScheduler cw(g, 3, opt);
  (void)cw.schedule(sys);
  auto colors = cw.colors();
  int mx = 0;
  for (const int c : colors) mx = std::max(mx, c);
  EXPECT_LT(mx, 32) << "palette should have compacted below the initial 32";
}

TEST(MoreMcs, ScheduleRecordsActiveSets) {
  core::System sys = test::figure2System();
  sched::HillClimbingScheduler ghc;
  const sched::McsResult res = sched::runCoveringSchedule(sys, ghc);
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(res.schedule.empty());
  // First slot is GHC's {B}.
  EXPECT_EQ(res.schedule[0].active, (std::vector<int>{1}));
  EXPECT_EQ(res.schedule[0].tags_read, 3);
}

TEST(MoreWeight, SingleWeightMatchesCoverageMinusRead) {
  core::System sys = test::smallRandomSystem(5, 12, 80);
  for (int v = 0; v < sys.numReaders(); ++v) {
    EXPECT_EQ(sys.singleWeight(v),
              static_cast<int>(test::coveredTags(sys, v).size()));
  }
  // Mark every other tag and re-check.
  for (int t = 0; t < sys.numTags(); t += 2) sys.markRead(t);
  for (int v = 0; v < sys.numReaders(); ++v) {
    int expect = 0;
    for (const int t : test::coveredTags(sys, v)) expect += !sys.isRead(t);
    EXPECT_EQ(sys.singleWeight(v), expect);
  }
}

TEST(MoreSystem, MarkUnreadRearmsTags) {
  core::System sys = test::figure2System();
  sys.markRead(0);
  EXPECT_EQ(sys.unreadCount(), 4);
  sys.markUnread(0);
  EXPECT_EQ(sys.unreadCount(), 5);
  EXPECT_FALSE(sys.isRead(0));
}

}  // namespace
}  // namespace rfid
