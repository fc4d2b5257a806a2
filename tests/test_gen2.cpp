// test_gen2.cpp — property/metamorphic suite for the Gen2 link layer
// (protocol/gen2.h, protocol/slot_timing.h; docs/protocol.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/budget.h"
#include "graph/interference_graph.h"
#include "protocol/aloha.h"
#include "protocol/gen2.h"
#include "protocol/slot_timing.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/streaming.h"
#include "test_helpers.h"
#include "workload/churn.h"
#include "workload/rng.h"

namespace rfid {
namespace {

using protocol::Gen2Options;
using protocol::Gen2Policy;
using protocol::Gen2RoundResult;
using protocol::Gen2Session;
using protocol::Gen2SessionState;
using protocol::Gen2Target;
using protocol::runGen2Round;

std::vector<int> iota(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

// --- Q convergence -------------------------------------------------------

// A fresh population of n tags is fully identified, and the expected work
// is linear-ish in n: the Q-algorithm tracks the backlog, so the micro-slot
// count stays within a generous constant factor of n instead of the
// quadratic blowup a fixed tiny frame would suffer.
TEST(Gen2, QAlgorithmConvergesWithBoundedFrames) {
  for (const int n : {1, 8, 64, 256}) {
    for (const std::uint64_t seed : test::seedRange(7, test::iterBudget(3))) {
      Gen2SessionState st;
      workload::Rng rng(seed);
      const std::vector<int> pop = iota(n);
      const Gen2RoundResult r =
          runGen2Round(pop, st, /*macro_slot=*/0, Gen2Target::kA, rng);
      EXPECT_TRUE(r.completed) << "n=" << n << " seed=" << seed;
      EXPECT_FALSE(r.double_identified);
      EXPECT_EQ(static_cast<int>(r.identified.size()), n);
      EXPECT_GE(r.micro_slots, n);  // every tag needs at least one slot
      EXPECT_LE(r.micro_slots, 16 * n + 64) << "n=" << n << " seed=" << seed;
      EXPECT_LE(r.frames, 32 + n) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Gen2, AfsaPolicyConvergesToo) {
  Gen2Options opt;
  opt.policy = Gen2Policy::kAfsa;
  for (const int n : {4, 64, 200}) {
    for (const std::uint64_t seed : test::seedRange(3, test::iterBudget(3))) {
      Gen2SessionState st;
      workload::Rng rng(seed);
      const Gen2RoundResult r =
          runGen2Round(iota(n), st, 0, Gen2Target::kA, rng, opt);
      EXPECT_TRUE(r.completed) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(static_cast<int>(r.identified.size()), n);
      EXPECT_LE(r.micro_slots, 16 * n + 64);
    }
  }
}

// --- Session-flag invariants --------------------------------------------

// An S2-inventoried tag never replies again within the persistence window:
// follow-up rounds see only session skips (and cost zero air-time), and the
// population replies again exactly when the window expires.
TEST(Gen2, S2InventoriedTagsStaySilentWithinPersistence) {
  Gen2Options opt;
  opt.session = Gen2Session::kS2;
  opt.persistence = 4;
  const int n = 32;
  Gen2SessionState st;
  workload::Rng rng(99);
  const Gen2RoundResult first =
      runGen2Round(iota(n), st, /*macro_slot=*/0, Gen2Target::kA, rng, opt);
  ASSERT_TRUE(first.completed);
  ASSERT_EQ(static_cast<int>(first.identified.size()), n);

  for (int slot = 1; slot <= opt.persistence; ++slot) {
    st.startSlot(slot, opt);
    const Gen2RoundResult r =
        runGen2Round(iota(n), st, slot, Gen2Target::kA, rng, opt);
    EXPECT_TRUE(r.identified.empty()) << "slot " << slot;
    EXPECT_EQ(r.session_skips, n) << "slot " << slot;
    EXPECT_EQ(r.air_us, 0) << "slot " << slot;
    EXPECT_EQ(r.micro_slots, 0) << "slot " << slot;
  }
  // One slot past the window the flags have decayed: everyone replies.
  const int after = opt.persistence + 1;
  st.startSlot(after, opt);
  const Gen2RoundResult again =
      runGen2Round(iota(n), st, after, Gen2Target::kA, rng, opt);
  EXPECT_EQ(static_cast<int>(again.identified.size()), n);
  EXPECT_EQ(again.session_skips, 0);
}

TEST(Gen2, S0ForgetsEveryMacroSlot) {
  Gen2Options opt;
  opt.session = Gen2Session::kS0;
  const int n = 16;
  Gen2SessionState st;
  workload::Rng rng(5);
  ASSERT_EQ(static_cast<int>(
                runGen2Round(iota(n), st, 0, Gen2Target::kA, rng, opt)
                    .identified.size()),
            n);
  st.startSlot(1, opt);
  const Gen2RoundResult r =
      runGen2Round(iota(n), st, 1, Gen2Target::kA, rng, opt);
  EXPECT_EQ(static_cast<int>(r.identified.size()), n);  // no persistence
  EXPECT_EQ(r.session_skips, 0);
}

// --- A/B target alternation ---------------------------------------------

// Round-trip: a target-A round flips every flag to B; the next (target-B)
// round reads the same population again and flips every flag back to A.
TEST(Gen2, ABAlternationRoundTrips) {
  Gen2Options opt;
  opt.alternate_target = true;
  opt.session = Gen2Session::kS2;
  const int n = 24;
  Gen2SessionState st;
  workload::Rng rng(42);

  ASSERT_EQ(protocol::roundTarget(opt, 0), Gen2Target::kA);
  ASSERT_EQ(protocol::roundTarget(opt, 1), Gen2Target::kB);

  const Gen2RoundResult a = runGen2Round(iota(n), st, 0,
                                         protocol::roundTarget(opt, 0), rng,
                                         opt);
  ASSERT_EQ(static_cast<int>(a.identified.size()), n);
  for (int t = 0; t < n; ++t) EXPECT_TRUE(st.flagB(t));

  st.startSlot(1, opt);
  const Gen2RoundResult b = runGen2Round(iota(n), st, 1,
                                         protocol::roundTarget(opt, 1), rng,
                                         opt);
  EXPECT_EQ(static_cast<int>(b.identified.size()), n);
  EXPECT_EQ(b.session_skips, 0);
  for (int t = 0; t < n; ++t) EXPECT_FALSE(st.flagB(t));
}

// --- MPR ----------------------------------------------------------------

// mpr_k <= 1 is plain Gen2: k=0 and k=1 runs are bit-identical.
TEST(Gen2, MprK1BitIdenticalToNonMpr) {
  for (const std::uint64_t seed : test::seedRange(11, test::iterBudget(5))) {
    Gen2Options k0;
    k0.mpr_k = 0;
    Gen2Options k1;
    k1.mpr_k = 1;
    Gen2SessionState s0, s1;
    workload::Rng r0(seed), r1(seed);
    const Gen2RoundResult a =
        runGen2Round(iota(100), s0, 0, Gen2Target::kA, r0, k0);
    const Gen2RoundResult b =
        runGen2Round(iota(100), s1, 0, Gen2Target::kA, r1, k1);
    EXPECT_EQ(a.identified, b.identified);
    EXPECT_EQ(a.micro_slots, b.micro_slots);
    EXPECT_EQ(a.air_us, b.air_us);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.mpr_slots, 0);
    EXPECT_EQ(b.mpr_slots, 0);
  }
}

// MPR turns k-occupancy collisions into successes, so air-time can only
// shrink (same seed, same draws — the slot classification is the only
// difference).
TEST(Gen2, MprShortensRounds) {
  std::int64_t base_us = 0, mpr_us = 0;
  for (const std::uint64_t seed : test::seedRange(21, test::iterBudget(5))) {
    Gen2Options base;
    Gen2Options mpr;
    mpr.mpr_k = 4;
    Gen2SessionState s0, s1;
    workload::Rng r0(seed), r1(seed);
    base_us += runGen2Round(iota(150), s0, 0, Gen2Target::kA, r0, base).air_us;
    mpr_us += runGen2Round(iota(150), s1, 0, Gen2Target::kA, r1, mpr).air_us;
  }
  EXPECT_LT(mpr_us, base_us);
}

// --- Double-ack self-check ----------------------------------------------

// The round's self-check must be able to fire: a population that lists tag
// 3 twice gets it acknowledged twice, whether the two replies resolve in
// separate micro-slots (k = 1) or together in one MPR slot (k = 2).
TEST(Gen2Round, DuplicatePopulationEntryIsDoubleIdentified) {
  for (const int k : {1, 2}) {
    Gen2Options opt;
    opt.mpr_k = k;
    Gen2SessionState st;
    workload::Rng rng(5);
    const std::vector<int> pop = {3, 3};
    const Gen2RoundResult r =
        runGen2Round(pop, st, 0, Gen2Target::kA, rng, opt);
    EXPECT_TRUE(r.completed) << "mpr_k=" << k;
    EXPECT_EQ(r.identified, pop) << "mpr_k=" << k;
    EXPECT_TRUE(r.double_identified) << "mpr_k=" << k;
  }
}

// --- Aloha frame re-size fix --------------------------------------------

// Degenerate caller bounds must not produce F = 0 frames.  Pre-fix,
// min_frame = 0 let a zero-collision re-size estimate propose an empty
// frame, which reads no tag and re-estimates 0 forever — spinning through
// max_frames with the backlog untouched.  The floor-of-1 clamp makes the
// single-tag endgame (remaining = 1, collisions = 0 → estimate 1) finish.
TEST(Aloha, DegenerateFrameBoundsNeverProposeEmptyFrames) {
  protocol::AlohaOptions opt;
  opt.initial_frame = 0;
  opt.min_frame = -3;
  opt.max_frame = 0;  // worst case: every frame clamped to size 1
  workload::Rng rng(17);
  // One tag in a size-1 frame is a singleton: identified in frame 1.
  const protocol::AlohaResult one = protocol::runAloha(1, rng, opt);
  EXPECT_TRUE(one.completed);
  EXPECT_EQ(one.frames, 1);
  EXPECT_EQ(one.tags_identified, 1);

  // Many tags pinned to F = 1 always collide — the run must still
  // terminate at the frame cap (no hang, no F = 0 UB) and charge one
  // micro-slot per frame.
  opt.max_frames = 64;
  const protocol::AlohaResult many = protocol::runAloha(25, rng, opt);
  EXPECT_FALSE(many.completed);
  EXPECT_EQ(many.frames, 64);
  EXPECT_EQ(many.micro_slots, 64);

  // Sane bounds with min_frame = 0 (the original trigger): completes.
  protocol::AlohaOptions vogt;
  vogt.min_frame = 0;
  vogt.initial_frame = 16;
  const protocol::AlohaResult full = protocol::runAloha(40, rng, vogt);
  EXPECT_TRUE(full.completed);
  EXPECT_EQ(full.tags_identified, 40);
  EXPECT_LT(full.frames, 1000);
}

// --- Link replay: unit cost is the pre-link schedule ---------------------

TEST(LinkTiming, UnitLinkMatchesScheduleExactly) {
  core::System sys = test::smallRandomSystem(31);
  sched::HillClimbingScheduler ghc;
  const sched::McsResult res = sched::runCoveringSchedule(sys, ghc);
  ASSERT_TRUE(res.completed);

  protocol::LinkOptions lo;  // default: Link::kUnit
  const protocol::LinkTimingResult lt =
      protocol::timeScheduleLink(sys, res, lo, workload::Rng(1));
  EXPECT_EQ(lt.macro_slots, res.slots);
  EXPECT_EQ(lt.micro_slots, res.slots);  // one micro-slot per macro-slot
  EXPECT_EQ(lt.tags_read, res.tags_read);
  EXPECT_EQ(lt.air_us, 0);
  EXPECT_TRUE(lt.check_ok);
}

// The on_commit hook observes every committed slot without perturbing the
// schedule: hooked and unhooked runs are bit-identical, and the hook's
// totals reconcile with the result.
TEST(LinkTiming, McsCommitHookObservesWithoutPerturbing) {
  core::System a = test::smallRandomSystem(57);
  core::System b = test::smallRandomSystem(57);
  sched::HillClimbingScheduler ghc;

  const sched::McsResult plain = sched::runCoveringSchedule(a, ghc);

  int hook_slots = 0;
  int hook_tags = 0;
  sched::McsOptions opt;
  opt.on_commit = [&](int slot, std::span<const int> active,
                      std::span<const int> served) {
    EXPECT_EQ(slot, hook_slots);
    EXPECT_FALSE(active.empty());
    ++hook_slots;
    hook_tags += static_cast<int>(served.size());
  };
  sched::HillClimbingScheduler ghc2;
  const sched::McsResult hooked = sched::runCoveringSchedule(b, ghc2, opt);

  EXPECT_EQ(hooked.slots, plain.slots);
  EXPECT_EQ(hooked.tags_read, plain.tags_read);
  EXPECT_EQ(hook_slots, hooked.slots);
  EXPECT_EQ(hook_tags, hooked.tags_read);
}

TEST(LinkTiming, StreamingCommitHookSeesEveryBusySlot) {
  core::System sys = test::smallRandomSystem(58);
  sched::HillClimbingScheduler ghc;
  int hook_slots = 0;
  int hook_tags = 0;
  sched::StreamingOptions so;
  so.max_stall = 50;
  so.on_commit = [&](int slot, std::span<const int>,
                     std::span<const int> served) {
    EXPECT_EQ(slot, hook_slots);
    ++hook_slots;
    hook_tags += static_cast<int>(served.size());
  };
  const sched::StreamingResult res =
      sched::runStreamingMcs(sys, ghc, {}, so);
  EXPECT_EQ(hook_slots, res.slots);
  EXPECT_EQ(hook_tags, res.tags_read);
}

// --- Gen2 co-simulation on real schedules --------------------------------

TEST(LinkTiming, Gen2ReplayIdentifiesEveryScheduledTag) {
  for (const std::uint64_t seed : test::seedRange(3, test::iterBudget(4))) {
    core::System sys = test::smallRandomSystem(seed);
    sched::HillClimbingScheduler ghc;
    const sched::McsResult res = sched::runCoveringSchedule(sys, ghc);

    protocol::LinkOptions lo;
    lo.link = protocol::Link::kGen2;
    const protocol::LinkTimingResult lt =
        protocol::timeScheduleLink(sys, res, lo, workload::Rng(seed));
    EXPECT_TRUE(lt.check_ok) << lt.check_detail;
    EXPECT_EQ(lt.tags_read, res.tags_read);
    EXPECT_EQ(lt.macro_slots, res.slots);
    EXPECT_EQ(lt.double_identifications, 0);
    if (res.tags_read > 0) {
      EXPECT_GT(lt.air_us, 0);
    }
    EXPECT_GE(lt.air_us_serial, lt.air_us);
  }
}

// Seed-determinism across scheduler thread counts: the schedule is
// bit-identical at any --threads (the PR4 contract), and the link replay
// derives all randomness from (seed, slot, reader) — so the seconds
// objective is identical too.
TEST(LinkTiming, Gen2ReplayDeterministicAcrossThreadCounts) {
  const std::uint64_t seed = 77;
  auto run = [&](int threads) {
    core::System sys = test::smallRandomSystem(seed, 14, 90, 50.0);
    const graph::InterferenceGraph g(sys);
    sched::GrowthOptions go;
    go.num_threads = threads;
    sched::GrowthScheduler alg2(g, go);
    const sched::McsResult res = sched::runCoveringSchedule(sys, alg2);
    protocol::LinkOptions lo;
    lo.link = protocol::Link::kGen2;
    return protocol::timeScheduleLink(sys, res, lo, workload::Rng(seed));
  };
  const protocol::LinkTimingResult one = run(1);
  const protocol::LinkTimingResult four = run(4);
  EXPECT_EQ(one.air_us, four.air_us);
  EXPECT_EQ(one.air_us_serial, four.air_us_serial);
  EXPECT_EQ(one.micro_slots, four.micro_slots);
  EXPECT_EQ(one.tags_read, four.tags_read);
  EXPECT_EQ(one.frames, four.frames);
  EXPECT_EQ(one.session_skips, four.session_skips);
  EXPECT_TRUE(one.check_ok);
  EXPECT_TRUE(four.check_ok);
}

// Sessions matter end-to-end: under S0 every physically covered tag replies
// in every slot it is covered, under S2 the already-read ones stay silent —
// so S2 air-time is never more than S0's on the same schedule.
TEST(LinkTiming, S2NeverCostsMoreThanS0OnTheSameSchedule) {
  for (const std::uint64_t seed : test::seedRange(13, test::iterBudget(3))) {
    core::System sys = test::smallRandomSystem(seed);
    sched::HillClimbingScheduler ghc;
    const sched::McsResult res = sched::runCoveringSchedule(sys, ghc);

    auto time_with = [&](Gen2Session session) {
      protocol::LinkOptions lo;
      lo.link = protocol::Link::kGen2;
      lo.gen2.session = session;
      return protocol::timeScheduleLink(sys, res, lo, workload::Rng(seed));
    };
    const protocol::LinkTimingResult s0 = time_with(Gen2Session::kS0);
    const protocol::LinkTimingResult s2 = time_with(Gen2Session::kS2);
    EXPECT_TRUE(s0.check_ok) << s0.check_detail;
    EXPECT_TRUE(s2.check_ok) << s2.check_detail;
    EXPECT_LE(s2.air_us_serial, s0.air_us_serial);
    EXPECT_GE(s0.stale_repliers, s2.stale_repliers);
  }
}

// --- Gen2 co-simulation on streams ---------------------------------------

// Churn with arrivals, departures and moves: the stream serves each tag at
// most once, while it is unread, and moves keep the read-state.
workload::ChurnTrace gen2StreamTrace(int initial_tags, std::uint64_t seed) {
  workload::ChurnConfig cc;
  cc.arrival_rate = 4.0;
  cc.depart_rate = 1.0;
  cc.move_rate = 1.0;
  cc.slots = 30;
  cc.region_side = 50.0;
  return workload::makeChurnTrace(cc, initial_tags, seed);
}

// A Gen2LinkTimer on the stream's commit hook arbitrates every busy slot's
// served tags as the slot lands: every served tag is identified exactly
// once, fresh, and every busy slot is one macro-slot.
TEST(LinkTiming, Gen2StreamTimerIdentifiesEveryServedTag) {
  for (const std::uint64_t seed : test::seedRange(21, test::iterBudget(3))) {
    core::System sys = test::smallRandomSystem(seed, 16, 120, 50.0);
    const workload::ChurnTrace trace = gen2StreamTrace(sys.numTags(), seed);
    protocol::Gen2LinkTimer timer(sys, Gen2Options{}, workload::Rng(seed));
    sched::StreamingOptions so;
    so.on_commit = [&timer](int slot, std::span<const int> active,
                            std::span<const int> served) {
      timer.onSlot(slot, active, served, static_cast<int>(served.size()));
    };
    sched::HillClimbingScheduler ghc;
    const sched::StreamingResult res =
        sched::runStreamingMcs(sys, ghc, trace, so);
    ASSERT_GT(res.arrived, 0);
    ASSERT_GT(res.departed, 0);
    ASSERT_GT(res.moved, 0);
    const protocol::LinkTimingResult& lt = timer.result();
    EXPECT_TRUE(lt.check_ok) << lt.check_detail;
    EXPECT_EQ(lt.identified, lt.tags_read) << "seed " << seed;
    EXPECT_EQ(lt.tags_read, res.tags_read) << "seed " << seed;
    EXPECT_EQ(lt.macro_slots, res.slots) << "seed " << seed;
    EXPECT_EQ(lt.double_identifications, 0);
  }
}

// A journaled stream stopped at a slot cap and resumed with a fresh timer
// re-feeds the replayed slots to the hook, so the timer's totals match the
// uninterrupted run's.
TEST(LinkTiming, Gen2StreamTimerTotalsSurviveResume) {
  namespace fs = std::filesystem;
  // Pid suffix: ctest -j cases are separate processes sharing one cwd.
  const std::string dir = "gen2_stream_tmp." + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint64_t seed = 23;
  const workload::ChurnTrace trace = gen2StreamTrace(120, seed);
  Gen2Options g2;
  g2.mpr_k = 2;
  auto run = [&](const std::string& path, bool resume, int slot_cap) {
    core::System sys = test::smallRandomSystem(seed, 16, 120, 50.0);
    protocol::Gen2LinkTimer timer(sys, g2,
                                  workload::Rng(seed).split("link"));
    sched::StreamingOptions so;
    so.on_commit = [&timer](int slot, std::span<const int> active,
                            std::span<const int> served) {
      timer.onSlot(slot, active, served, static_cast<int>(served.size()));
    };
    ckpt::RunBudget budget;
    if (slot_cap > 0) {
      budget.setSlotCap(slot_cap);
      so.budget = &budget;
    }
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.resume = resume;
    setup.seed = seed;
    setup.snapshot_every = 2;
    sched::HillClimbingScheduler ghc;
    const sched::StreamingCheckpointedRun r =
        sched::runStreamingCheckpointed(sys, ghc, trace, so, setup);
    EXPECT_TRUE(r.ok) << r.error;
    return std::make_pair(r.result, timer.result());
  };
  const auto [base_res, base] = run(dir + "/base", false, 0);
  ASSERT_GT(base_res.slots, 4) << "scenario too easy to test resume";
  ASSERT_GT(base.frames, 0);
  const auto [cut_res, cut] = run(dir + "/cut", false, 4);
  ASSERT_TRUE(cut_res.interrupted);
  EXPECT_EQ(cut.macro_slots, 4);
  const auto [resumed_res, resumed] = run(dir + "/cut", true, 0);
  EXPECT_EQ(resumed_res.replayed_slots, 4);
  EXPECT_EQ(resumed_res.slots, base_res.slots);
  EXPECT_TRUE(base.check_ok) << base.check_detail;
  EXPECT_TRUE(resumed.check_ok) << resumed.check_detail;
  EXPECT_EQ(resumed.macro_slots, base.macro_slots);
  EXPECT_EQ(resumed.micro_slots, base.micro_slots);
  EXPECT_EQ(resumed.air_us, base.air_us);
  EXPECT_EQ(resumed.micro_slots_serial, base.micro_slots_serial);
  EXPECT_EQ(resumed.air_us_serial, base.air_us_serial);
  EXPECT_EQ(resumed.tags_read, base.tags_read);
  EXPECT_EQ(resumed.frames, base.frames);
  EXPECT_EQ(resumed.identified, base.identified);
  EXPECT_EQ(resumed.session_skips, base.session_skips);
  EXPECT_EQ(resumed.stale_repliers, base.stale_repliers);
  EXPECT_EQ(resumed.double_identifications, base.double_identifications);
  fs::remove_all(dir);
}

TEST(LinkTiming, ParseAndNameRoundTrip) {
  protocol::Link l;
  EXPECT_TRUE(protocol::parseLink("unit", l));
  EXPECT_EQ(l, protocol::Link::kUnit);
  EXPECT_TRUE(protocol::parseLink("gen2", l));
  EXPECT_EQ(l, protocol::Link::kGen2);
  EXPECT_TRUE(protocol::parseLink("aloha", l));
  EXPECT_EQ(l, protocol::Link::kAloha);
  EXPECT_TRUE(protocol::parseLink("tree", l));
  EXPECT_EQ(l, protocol::Link::kTreeWalk);
  EXPECT_FALSE(protocol::parseLink("gen3", l));
  EXPECT_STREQ(protocol::linkName(protocol::Link::kGen2), "gen2");
}

}  // namespace
}  // namespace rfid
