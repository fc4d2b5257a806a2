// Link-layer protocol tests: framed ALOHA, tree walking, and the slot
// timing adapter.
#include <gtest/gtest.h>

#include <algorithm>

#include "protocol/aloha.h"
#include "protocol/slot_timing.h"
#include "protocol/tree_walking.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::protocol {
namespace {

TEST(Aloha, ZeroTagsInstant) {
  workload::Rng rng(1);
  const AlohaResult res = runAloha(0, rng);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.frames, 0);
  EXPECT_EQ(res.micro_slots, 0);
}

TEST(Aloha, SingleTagFirstFrame) {
  workload::Rng rng(2);
  const AlohaResult res = runAloha(1, rng);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.tags_identified, 1);
  EXPECT_EQ(res.frames, 1);  // a lone tag cannot collide
}

TEST(Aloha, IdentifiesEveryTag) {
  for (const int n : {5, 20, 100, 500}) {
    workload::Rng rng(static_cast<std::uint64_t>(n));
    const AlohaResult res = runAloha(n, rng);
    EXPECT_TRUE(res.completed) << n;
    EXPECT_EQ(res.tags_identified, n);
    EXPECT_GE(res.micro_slots, n);  // one micro-slot per read, at best
  }
}

TEST(Aloha, SlotEfficiencyIsAlohaLike) {
  // Framed ALOHA's throughput tops out near 1/e ≈ 0.368; with adaptation
  // the end-to-end efficiency lands in a band around it.
  workload::Rng rng(7);
  const AlohaResult res = runAloha(1000, rng);
  const double eff = 1000.0 / static_cast<double>(res.micro_slots);
  EXPECT_GT(eff, 0.20);
  EXPECT_LT(eff, 0.55);
}

TEST(Aloha, DeterministicPerSeed) {
  workload::Rng a(9), b(9);
  const AlohaResult ra = runAloha(64, a);
  const AlohaResult rb = runAloha(64, b);
  EXPECT_EQ(ra.micro_slots, rb.micro_slots);
  EXPECT_EQ(ra.frames, rb.frames);
}

TEST(TreeWalk, EmptyPopulation) {
  const TreeWalkResult res = runTreeWalk({}, 8);
  EXPECT_EQ(res.tags_identified, 0);
  EXPECT_EQ(res.probes, 1);  // the root "anyone there?" query
  EXPECT_EQ(res.empties, 1);
}

TEST(TreeWalk, SingleTag) {
  const std::vector<std::uint64_t> ids = {0b1010};
  const TreeWalkResult res = runTreeWalk(ids, 4);
  EXPECT_EQ(res.tags_identified, 1);
  EXPECT_EQ(res.probes, 1);
  EXPECT_EQ(res.collisions, 0);
}

TEST(TreeWalk, TwoTagsSplitAtFirstDifferingBit) {
  // ids 0b00 and 0b10 differ at the top bit: one collision at the root,
  // then two singleton probes.
  const std::vector<std::uint64_t> ids = {0b00, 0b10};
  const TreeWalkResult res = runTreeWalk(ids, 2);
  EXPECT_EQ(res.tags_identified, 2);
  EXPECT_EQ(res.collisions, 1);
  EXPECT_EQ(res.probes, 3);
  EXPECT_EQ(res.empties, 0);
}

TEST(TreeWalk, DeepSplitCostsMoreProbes) {
  // ids differing only at the lowest bit force a full-depth walk.
  const std::vector<std::uint64_t> shallow = {0b0000, 0b1000};
  const std::vector<std::uint64_t> deep = {0b0000, 0b0001};
  const auto rs = runTreeWalk(shallow, 4);
  const auto rd = runTreeWalk(deep, 4);
  EXPECT_EQ(rs.tags_identified, 2);
  EXPECT_EQ(rd.tags_identified, 2);
  EXPECT_GT(rd.probes, rs.probes);
  EXPECT_EQ(rd.collisions, 4);  // collision at every level down
}

TEST(TreeWalk, IdentifiesLargeRandomPopulation) {
  workload::Rng rng(11);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(rng.next() & 0xffff);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const TreeWalkResult res = runTreeWalk(ids, 16);
  EXPECT_EQ(res.tags_identified, static_cast<int>(ids.size()));
  // Probe count is Θ(n log(space/n)); sanity band.
  EXPECT_GT(res.probes, static_cast<std::int64_t>(ids.size()));
  EXPECT_LT(res.probes, static_cast<std::int64_t>(ids.size()) * 20);
}

TEST(TreeWalk, DeterministicAlways) {
  const std::vector<std::uint64_t> ids = {3, 9, 12, 200, 1023};
  const auto a = runTreeWalk(ids, 10);
  const auto b = runTreeWalk(ids, 10);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(SlotTiming, ChargesSlowestReaderPerSlot) {
  core::System sys = test::smallRandomSystem(21, 15, 120, 50.0);
  sched::HillClimbingScheduler ghc;
  const sched::McsResult schedule = sched::runCoveringSchedule(sys, ghc);
  ASSERT_TRUE(schedule.completed);

  LinkOptions aloha_opt;
  aloha_opt.link = Link::kAloha;
  LinkOptions tree_opt;
  tree_opt.link = Link::kTreeWalk;
  const LinkTimingResult aloha =
      timeScheduleLink(sys, schedule, aloha_opt, workload::Rng(5));
  const LinkTimingResult tree =
      timeScheduleLink(sys, schedule, tree_opt, workload::Rng(5));

  EXPECT_EQ(aloha.macro_slots, schedule.slots);
  EXPECT_EQ(tree.macro_slots, schedule.slots);
  EXPECT_EQ(aloha.tags_read, schedule.tags_read);
  EXPECT_EQ(tree.tags_read, schedule.tags_read);
  // Parallel (max) time never exceeds serial (sum) time.
  EXPECT_LE(aloha.micro_slots, aloha.micro_slots_serial);
  EXPECT_LE(tree.micro_slots, tree.micro_slots_serial);
  EXPECT_GT(aloha.micro_slots, 0);
  EXPECT_GT(tree.micro_slots, 0);
}

TEST(SlotTiming, AlohaStreamsAreDistinctPerSlotAndReader) {
  // Keyed as slot*1000 + reader, reader 1000 in slot 0 replayed reader 0's
  // stream for slot 1.  Split by slot, then by reader, every pair draws
  // its own stream.
  const workload::Rng link(5);
  for (const int slot : {0, 1, 7}) {
    EXPECT_NE(alohaReaderRng(link, slot, 1000).next(),
              alohaReaderRng(link, slot + 1, 0).next())
        << "slot " << slot;
    EXPECT_NE(alohaReaderRng(link, slot, 1).next(),
              alohaReaderRng(link, slot, 0).next());
    EXPECT_EQ(alohaReaderRng(link, slot, 3).next(),
              alohaReaderRng(link, slot, 3).next());
  }
  // What the old key did: the two draws coincide.
  EXPECT_EQ(link.split("aloha", 0 * 1000 + 1000).next(),
            link.split("aloha", 1 * 1000 + 0).next());
}

TEST(SlotTiming, EmptyScheduleCostsNothing) {
  core::System sys = test::smallRandomSystem(22, 5, 20);
  const sched::McsResult empty;
  LinkOptions opt;
  opt.link = Link::kTreeWalk;
  const LinkTimingResult res =
      timeScheduleLink(sys, empty, opt, workload::Rng(1));
  EXPECT_EQ(res.macro_slots, 0);
  EXPECT_EQ(res.micro_slots, 0);
  EXPECT_EQ(res.tags_read, 0);
}

}  // namespace
}  // namespace rfid::protocol
