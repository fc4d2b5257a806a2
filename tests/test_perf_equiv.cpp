// test_perf_equiv.cpp — the hot-path overhaul must not move a single
// scheduled set (docs/performance.md).
//
// Every optimized selection path (CSR + inverted index, lazy-greedy queue,
// component / shift parallelism) is compared against its reference on the
// same instance — the full-scan Alg2 (tests/reference_paths.h), the scan
// GHC, and the PTAS shift loop at one thread: one-shot results, MCS slot
// sequences (with and without fault injection), stats, and
// checkpoint/resume continuations must all be byte-identical, for every
// thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "ckpt/budget.h"
#include "ckpt/mcs_ckpt.h"
#include "core/weight.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "reference_paths.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "test_helpers.h"
#include "workload/scenario.h"

namespace rfid::sched {
namespace {

core::System midSystem(std::uint64_t seed, int n = 90, int m = 1600) {
  return test::smallRandomSystem(seed, n, m, /*side=*/70.0);
}

void expectSameResult(const OneShotResult& a, const OneShotResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.readers, b.readers) << what;
  EXPECT_EQ(a.weight, b.weight) << what;
}

void expectSameMcs(const McsResult& a, const McsResult& b,
                   const std::string& what) {
  EXPECT_EQ(a.slots, b.slots) << what;
  EXPECT_EQ(a.tags_read, b.tags_read) << what;
  EXPECT_EQ(a.uncoverable, b.uncoverable) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.schedule.size(), b.schedule.size()) << what;
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].active, b.schedule[i].active)
        << what << " slot " << i;
    EXPECT_EQ(a.schedule[i].tags_read, b.schedule[i].tags_read)
        << what << " slot " << i;
  }
  EXPECT_EQ(a.degradation.faulty_slots, b.degradation.faulty_slots) << what;
  EXPECT_EQ(a.degradation.tags_missed, b.degradation.tags_missed) << what;
  EXPECT_EQ(a.degradation.tags_orphaned, b.degradation.tags_orphaned) << what;
}

// ---- the lazy-greedy primitives against their definitions ----

TEST(PerfEquiv, StandaloneCacheTracksSingleWeightsAcrossReads) {
  core::System sys = midSystem(901);
  core::StandaloneWeightCache cache;
  cache.sync(sys);
  for (int v = 0; v < sys.numReaders(); ++v) {
    ASSERT_EQ(cache.weights()[static_cast<std::size_t>(v)], sys.singleWeight(v));
  }
  // Serve a batch, un-serve part of it, re-sync: incremental must equal a
  // from-scratch recompute.
  std::mt19937 rng(7);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 200; ++i) {
      const int t = static_cast<int>(rng() % static_cast<unsigned>(sys.numTags()));
      if (rng() % 3 == 0) sys.markUnread(t);
      else sys.markRead(t);
    }
    cache.sync(sys);
    for (int v = 0; v < sys.numReaders(); ++v) {
      ASSERT_EQ(cache.weights()[static_cast<std::size_t>(v)],
                sys.singleWeight(v))
          << "round " << round << " reader " << v;
    }
  }
}

TEST(PerfEquiv, LazyQueueMatchesFullScanUnderRandomCommits) {
  // The adversarial property: peekDelta is NOT monotone under commits (a
  // shared singly-covered tag gaining a second coverer raises sibling
  // deltas), so the queue must track increases too.  Random greedy-ish
  // commit sequences exercise both transition kinds.
  for (const std::uint64_t seed : test::seedRange(11, test::iterBudget(4))) {
    core::System sys = midSystem(seed, 50, 700);
    core::WeightEvaluator eval(sys);
    core::StandaloneWeightCache cache;
    cache.sync(sys);
    std::vector<int> all(static_cast<std::size_t>(sys.numReaders()));
    for (int v = 0; v < sys.numReaders(); ++v) all[static_cast<std::size_t>(v)] = v;
    core::LazyGreedyQueue queue;
    queue.beginRound(eval, all, cache.weights());
    std::vector<char> eligible(static_cast<std::size_t>(sys.numReaders()), 1);

    std::mt19937 rng(seed);
    while (true) {
      // Reference argmax by full scan.
      int want = -1;
      int want_delta = 0;
      for (int v = 0; v < sys.numReaders(); ++v) {
        if (eligible[static_cast<std::size_t>(v)] == 0) continue;
        const int d = eval.peekDelta(v);
        if (d > want_delta) {
          want_delta = d;
          want = v;
        }
      }
      int got_delta = 0;
      const int got = queue.pickBest(eligible, &got_delta);
      ASSERT_EQ(got, want);
      if (got < 0) break;
      ASSERT_EQ(got_delta, want_delta);
      // Commit the pick, plus occasionally mark a random eligible reader
      // ineligible (eligibility only shrinks — the queue contract).
      eval.push(got);
      queue.invalidate(got);
      eligible[static_cast<std::size_t>(got)] = 0;
      if (rng() % 2 == 0) {
        const int x = static_cast<int>(rng() % static_cast<unsigned>(sys.numReaders()));
        eligible[static_cast<std::size_t>(x)] = 0;
      }
    }
  }
}

// ---- one-shot equivalence: optimized vs reference, all thread counts ----

TEST(PerfEquiv, GrowthLazyAndParallelMatchReference) {
  for (const std::uint64_t seed : test::seedRange(21, test::iterBudget(3))) {
    core::System sys = midSystem(seed);
    const graph::InterferenceGraph g(sys);

    test::ref::ScanGrowthScheduler ref(g);
    const OneShotResult want = ref.schedule(sys);

    for (const int threads : {1, 3}) {
      GrowthOptions o;
      o.num_threads = threads;
      GrowthScheduler lazy(g, o);
      const OneShotResult got = lazy.schedule(sys);
      expectSameResult(want, got,
                       "alg2 seed " + std::to_string(seed) + " threads " +
                           std::to_string(threads));
      EXPECT_EQ(lazy.lastStats().picks, ref.lastStats().picks);
      EXPECT_EQ(lazy.lastStats().bnb_nodes, ref.lastStats().bnb_nodes);
      EXPECT_EQ(lazy.lastStats().max_rbar, ref.lastStats().max_rbar);
    }
  }
}

TEST(PerfEquiv, HillClimbingLazyMatchesReference) {
  for (const std::uint64_t seed : test::seedRange(31, test::iterBudget(3))) {
    core::System sys = midSystem(seed);
    HillClimbingScheduler ref(/*lazy_selection=*/false);
    HillClimbingScheduler lazy;
    expectSameResult(ref.schedule(sys), lazy.schedule(sys),
                     "ghc seed " + std::to_string(seed));
  }
}

TEST(PerfEquiv, PtasParallelShiftsMatchSequential) {
  for (const std::uint64_t seed : test::seedRange(41, test::iterBudget(2))) {
    core::System sys = midSystem(seed, 60, 900);

    PtasOptions ref_opt;
    ref_opt.num_threads = 1;
    PtasScheduler ref(ref_opt);
    const OneShotResult want = ref.schedule(sys);

    for (const int threads : {2, 5}) {
      PtasOptions o;
      o.num_threads = threads;
      PtasScheduler par(o);
      const OneShotResult got = par.schedule(sys);
      expectSameResult(want, got,
                       "alg1 seed " + std::to_string(seed) + " threads " +
                           std::to_string(threads));
      EXPECT_EQ(par.lastStats().best_shift_r, ref.lastStats().best_shift_r);
      EXPECT_EQ(par.lastStats().best_shift_s, ref.lastStats().best_shift_s);
      EXPECT_EQ(par.lastStats().levels, ref.lastStats().levels);
      EXPECT_EQ(par.lastStats().dp_entries, ref.lastStats().dp_entries);
      EXPECT_EQ(par.lastStats().weight_evals, ref.lastStats().weight_evals);
    }
  }
}

// ---- MCS slot-sequence equivalence (the cross-slot caches in play) ----

TEST(PerfEquiv, McsSlotSequencesIdenticalAcrossPaths) {
  for (const std::uint64_t seed : test::seedRange(51, test::iterBudget(2))) {
    // alg2: full scan vs lazy vs lazy-parallel, fresh System per run (the
    // driver consumes the read-state).
    McsResult want;
    {
      core::System sys = midSystem(seed);
      const graph::InterferenceGraph g(sys);
      test::ref::ScanGrowthScheduler s(g);
      want = runCoveringSchedule(sys, s, {});
    }
    for (const int threads : {1, 3}) {
      core::System sys = midSystem(seed);
      const graph::InterferenceGraph g(sys);
      GrowthOptions o;
      o.num_threads = threads;
      GrowthScheduler s(g, o);
      const McsResult got = runCoveringSchedule(sys, s, {});
      expectSameMcs(want, got,
                    "alg2 mcs seed " + std::to_string(seed) + " threads " +
                        std::to_string(threads));
    }

    // ghc: reference vs lazy (the standalone cache refreshes across slots).
    McsResult ghc_want;
    {
      core::System sys = midSystem(seed);
      HillClimbingScheduler s(/*lazy_selection=*/false);
      ghc_want = runCoveringSchedule(sys, s, {});
    }
    {
      core::System sys = midSystem(seed);
      HillClimbingScheduler s;
      const McsResult got = runCoveringSchedule(sys, s, {});
      expectSameMcs(ghc_want, got, "ghc mcs seed " + std::to_string(seed));
    }
  }
}

TEST(PerfEquiv, FaultInjectedMcsIdenticalAcrossPaths) {
  // Crashes flip read-states and bench readers mid-run — the harshest
  // workout for the incremental caches.  Loud crash jams, silent orphans.
  fault::FaultPlan plan;
  plan.addCrash(3, 1, -1, /*loud=*/true);
  plan.addCrash(10, 0, -1, /*loud=*/false);

  McsResult want;
  {
    core::System sys = midSystem(61);
    const graph::InterferenceGraph g(sys);
    test::ref::ScanGrowthScheduler s(g);
    McsOptions opt;
    opt.faults = &plan;
    want = runCoveringSchedule(sys, s, opt);
  }
  for (const int threads : {1, 3}) {
    core::System sys = midSystem(61);
    const graph::InterferenceGraph g(sys);
    GrowthOptions o;
    o.num_threads = threads;
    GrowthScheduler s(g, o);
    McsOptions opt;
    opt.faults = &plan;
    const McsResult got = runCoveringSchedule(sys, s, opt);
    expectSameMcs(want, got, "alg2 fault mcs threads " + std::to_string(threads));
  }

  McsResult ghc_want;
  {
    core::System sys = midSystem(61);
    HillClimbingScheduler s(/*lazy_selection=*/false);
    McsOptions opt;
    opt.faults = &plan;
    ghc_want = runCoveringSchedule(sys, s, opt);
  }
  {
    core::System sys = midSystem(61);
    HillClimbingScheduler s;
    McsOptions opt;
    opt.faults = &plan;
    expectSameMcs(ghc_want, runCoveringSchedule(sys, s, opt), "ghc fault mcs");
  }
}

// ---- checkpoint/resume: a cold-cache continuation must replay exactly ----

TEST(PerfEquiv, ResumedLazyRunMatchesUninterruptedReference) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "perf_equiv_ckpt.journal").string();
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());

  // Uninterrupted run on the full-scan reference.
  McsResult want;
  {
    core::System sys = midSystem(71);
    const graph::InterferenceGraph g(sys);
    test::ref::ScanGrowthScheduler s(g);
    want = runCoveringSchedule(sys, s, {});
  }
  ASSERT_GE(want.slots, 3) << "instance too easy to test a mid-run resume";

  // Lazy run stopped after 2 committed slots, journaled.
  {
    core::System sys = midSystem(71);
    const graph::InterferenceGraph g(sys);
    GrowthScheduler s(g, {});
    ckpt::RunBudget budget;
    budget.setSlotCap(2);
    McsOptions opt;
    opt.budget = &budget;
    s.attachCancel(&budget.token());
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.seed = 71;
    const ckpt::CheckpointedRun run = ckpt::runMcsCheckpointed(sys, s, opt, setup);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_TRUE(run.result.interrupted);
  }

  // Resume with a *fresh* scheduler (cold caches): the continuation must
  // line up with the uninterrupted reference schedule exactly.
  {
    core::System sys = midSystem(71);
    const graph::InterferenceGraph g(sys);
    GrowthScheduler s(g, {});
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.resume = true;
    setup.seed = 71;
    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, s, {}, setup);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.replayed_slots, 2);
    expectSameMcs(want, run.result, "resumed lazy vs uninterrupted reference");
  }
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
}

// ---- the bitmap referee at the CI large-n instance ----

TEST(BitmapEquiv, LargeAlg2McsMatchesCsrReferee) {
  // The CI instance (`--readers 20000 --tags 200000 --side 2000 --seed 99`),
  // every slot audited.  In the integration binary: sanitized, it is slow.
  workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  sc.deploy.num_readers = 20000;
  sc.deploy.num_tags = 200000;
  sc.deploy.region_side = 2000.0;
  core::System sys = workload::makeSystem(sc, 99);
  const graph::InterferenceGraph g(sys);
  GrowthScheduler alg2(g);
  test::ref::RefereeAudit audit(alg2);
  const McsResult res = runCoveringSchedule(sys, audit, {});
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(audit.calls(), res.slots);
}

}  // namespace
}  // namespace rfid::sched
