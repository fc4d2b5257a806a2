// test_bitmap_equiv.cpp — the blocked-bitmap weight referee against the
// CSR reference referee (tests/reference_paths.h, docs/performance.md):
// raw referee calls on random subsets, every schedule() call of one-shot,
// MCS (with and without faults) and resumed runs under ref::RefereeAudit,
// and streaming churn.  The SFC permutation under the layout is
// property-tested as a round-trip bijection.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "check/index_oracle.h"
#include "check/invariants.h"
#include "ckpt/budget.h"
#include "ckpt/mcs_ckpt.h"
#include "fault/fault_plan.h"
#include "geometry/morton.h"
#include "graph/interference_graph.h"
#include "reference_paths.h"
#include "sched/growth.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::core {
namespace {

namespace ref = test::ref;

System bitmapSystem(std::uint64_t seed, int n = 70, int m = 1200) {
  return test::smallRandomSystem(seed, n, m, /*side=*/60.0);
}

// ---- raw referee equivalence: weight / singleWeight / wellCoveredTags ----

TEST(BitmapEquiv, RefereeMatchesCsrOnRandomSubsets) {
  for (const std::uint64_t seed : test::seedRange(101, test::iterBudget(4))) {
    System sys = bitmapSystem(seed);

    std::mt19937 rng(static_cast<unsigned>(seed));
    for (int round = 0; round < 12; ++round) {
      // Random active set, occasionally with jamming readers; the referee
      // must agree on weights and on the exact well-covered tag sets.
      std::vector<int> x;
      std::vector<int> jam;
      for (int v = 0; v < sys.numReaders(); ++v) {
        const unsigned r = rng() % 8;
        if (r < 2) x.push_back(v);
        else if (r == 2) jam.push_back(v);
      }
      ASSERT_EQ(sys.weight(x), ref::weight(sys, x)) << "seed " << seed;
      const std::vector<int> served = sys.wellCoveredTags(x, jam);
      ASSERT_EQ(served, ref::wellCoveredTags(sys, x, jam))
          << "seed " << seed << " round " << round;
      for (const int v : x) {
        ASSERT_EQ(sys.singleWeight(v), ref::singleWeight(sys, v));
      }
      ASSERT_EQ(sys.unreadCoverableCount(), ref::unreadCoverableCount(sys));
      // Consume some of the served tags so later rounds see a different
      // read-state (the bitmap referee masks read bits word-parallel).
      for (std::size_t i = 0; i < served.size(); i += 3) sys.markRead(served[i]);
    }
  }
}

// ---- every schedule() call of one-shot and MCS runs, audited ----

TEST(BitmapEquiv, OneShotScheduleIdenticalAcrossReferees) {
  for (const std::uint64_t seed : test::seedRange(111, test::iterBudget(3))) {
    System sys = bitmapSystem(seed);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler alg2(g);
    ref::RefereeAudit audit(alg2);
    const sched::OneShotResult a = audit.schedule(sys);
    EXPECT_EQ(a.weight, ref::weight(sys, a.readers)) << "seed " << seed;
  }
}

void expectSameMcs(const sched::McsResult& a, const sched::McsResult& b,
                   const std::string& what) {
  EXPECT_EQ(a.slots, b.slots) << what;
  EXPECT_EQ(a.tags_read, b.tags_read) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.schedule.size(), b.schedule.size()) << what;
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].active, b.schedule[i].active) << what << " slot " << i;
    EXPECT_EQ(a.schedule[i].tags_read, b.schedule[i].tags_read)
        << what << " slot " << i;
  }
}

/// Alg2 MCS on bitmapSystem(seed), every schedule() call audited.
sched::McsResult auditedMcs(std::uint64_t seed, const sched::McsOptions& opt) {
  System sys = bitmapSystem(seed);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler alg2(g);
  ref::RefereeAudit audit(alg2);
  const sched::McsResult res = sched::runCoveringSchedule(sys, audit, opt);
  EXPECT_EQ(audit.calls(), res.slots) << "seed " << seed;
  return res;
}

TEST(BitmapEquiv, McsSlotSequencesIdenticalAcrossReferees) {
  for (const std::uint64_t seed : test::seedRange(121, test::iterBudget(2))) {
    const sched::McsResult audited = auditedMcs(seed, {});
    EXPECT_TRUE(audited.completed) << "seed " << seed;
    // The audit only observes: the plain run commits the same slots.
    System sys = bitmapSystem(seed);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler s(g);
    expectSameMcs(audited, sched::runCoveringSchedule(sys, s, {}),
                  "mcs seed " + std::to_string(seed));
  }
}

TEST(BitmapEquiv, FaultInjectedMcsIdenticalAcrossReferees) {
  fault::FaultPlan plan;
  plan.addCrash(2, 1, -1, /*loud=*/true);
  plan.addCrash(7, 0, -1, /*loud=*/false);

  // The audit pins every referee answer the scheduler consumes; the
  // driver's jammed verdicts (live set vs the loud-crashed radiators) are
  // re-derived from raw geometry by the invariant oracle.
  check::CheckOptions co;
  co.faults = &plan;
  check::ScheduleValidator val(co);
  sched::McsOptions opt;
  opt.faults = &plan;
  opt.validator = &val;
  const sched::McsResult audited = auditedMcs(131, opt);
  EXPECT_TRUE(val.ok());
  EXPECT_EQ(val.slotsChecked(), audited.slots);
  EXPECT_GT(audited.degradation.faulty_slots, 0) << "the plan never fired";
}

// ---- streaming churn: incremental bitmap maintenance vs rebuild ----

TEST(BitmapEquiv, ChurnedBitmapMatchesRebuildAndCsr) {
  for (const std::uint64_t seed : test::seedRange(141, test::iterBudget(3))) {
    System sys = bitmapSystem(seed, 40, 500);
    std::mt19937 rng(static_cast<unsigned>(seed) + 9);
    const double side = 60.0;
    auto pos = [&rng, side] {
      return geom::Vec2{side * (static_cast<double>(rng() % 10000) / 10000.0),
                        side * (static_cast<double>(rng() % 10000) / 10000.0)};
    };
    for (int op = 0; op < 120; ++op) {
      const unsigned k = rng() % 4;
      if (k == 0) {
        Tag t;
        t.pos = pos();
        t.epc = static_cast<std::uint64_t>(100000 + op);
        sys.addTag(t);
      } else if (k == 1) {
        const int t = static_cast<int>(rng() % static_cast<unsigned>(sys.numTags()));
        if (!sys.departed(t)) sys.removeTag(t);
      } else {
        const int t = static_cast<int>(rng() % static_cast<unsigned>(sys.numTags()));
        if (!sys.departed(t)) sys.moveTag(t, pos());
      }
      if (rng() % 5 == 0) {
        const int t = static_cast<int>(rng() % static_cast<unsigned>(sys.numTags()));
        if (!sys.departed(t)) sys.markRead(t);
      }
    }
    // The incrementally patched bitmap must agree with the CSR referee on
    // every single-reader weight and the coverable count, with the oracle's
    // independent geometry rebuild, and with its own from-scratch
    // reconstruction.
    for (int v = 0; v < sys.numReaders(); ++v) {
      ASSERT_EQ(sys.singleWeight(v), ref::singleWeight(sys, v)) << "reader " << v;
    }
    ASSERT_EQ(sys.unreadCoverableCount(), ref::unreadCoverableCount(sys));
    check::IncrementalIndexOracle oracle;
    EXPECT_EQ(oracle.verify(sys, /*slot=*/0), check::IndexVerdict::kOk)
        << "seed " << seed;
    const std::uint64_t live = sys.bitmapFingerprint();
    sys.rebuildIndex();
    EXPECT_EQ(sys.bitmapFingerprint(), live) << "seed " << seed;
  }
}

TEST(BitmapEquiv, OracleDetectsAndHealsBitmapDesync) {
  System sys = bitmapSystem(151, 30, 300);
  check::IncrementalIndexOracle oracle;
  ASSERT_EQ(oracle.verify(sys, 0), check::IndexVerdict::kOk);
  sys.testOnlyCorruptBitmap();
  EXPECT_EQ(oracle.verify(sys, 1), check::IndexVerdict::kHealed);
  EXPECT_EQ(oracle.divergences(), 1);
  EXPECT_EQ(oracle.verify(sys, 2), check::IndexVerdict::kOk);
}

// ---- checkpoint resume, audited on both sides ----

TEST(BitmapEquiv, ResumedRunMatchesUninterruptedReferenceReferee) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "bitmap_equiv_ckpt.journal").string();
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());

  const sched::McsResult want = auditedMcs(161, {});
  ASSERT_GE(want.slots, 3) << "instance too easy to test a mid-run resume";

  {
    System sys = bitmapSystem(161);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler s(g);
    ckpt::RunBudget budget;
    budget.setSlotCap(2);
    sched::McsOptions opt;
    opt.budget = &budget;
    s.attachCancel(&budget.token());
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.seed = 161;
    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, s, opt, setup);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_TRUE(run.result.interrupted);
  }
  {
    // The resume replays the journaled slots through the live loop, so the
    // audit covers the replayed calls as well as the continuation.
    System sys = bitmapSystem(161);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler s(g);
    ref::RefereeAudit audit(s);
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.resume = true;
    setup.seed = 161;
    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, audit, {}, setup);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_FALSE(run.result.interrupted);
    EXPECT_EQ(run.replayed_slots, 2);
    EXPECT_EQ(audit.calls(), run.result.slots);
    expectSameMcs(want, run.result, "resumed vs uninterrupted, both audited");
  }
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
}

// ---- SFC permutation properties ----

TEST(BitmapEquiv, SfcPermutationRoundTripsAndMatchesMortonOrder) {
  for (const std::uint64_t seed : test::seedRange(171, test::iterBudget(4))) {
    const System sys = bitmapSystem(seed, 50, 800);
    const int n = sys.numReaders();
    const int m = sys.numTags();

    // Round-trip bijections: bit/tag and row/reader.
    std::vector<char> seen_bit(static_cast<std::size_t>(m), 0);
    for (int t = 0; t < m; ++t) {
      const std::uint32_t p = sys.tagBit(t);
      ASSERT_LT(p, sys.numTagBits());
      ASSERT_EQ(sys.bitTag(p), t);
      ASSERT_EQ(seen_bit[p], 0) << "bit position reused";
      seen_bit[p] = 1;
    }
    std::vector<char> seen_row(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      const std::uint32_t r = sys.readerRow(v);
      ASSERT_LT(r, static_cast<std::uint32_t>(n));
      ASSERT_EQ(sys.rowReader(r), v);
      ASSERT_EQ(seen_row[r], 0) << "arena row reused";
      seen_row[r] = 1;
    }

    // The construction-time permutations are exactly mortonOrder() over the
    // respective position sets: bit p holds the p-th tag on the Z-curve.
    std::vector<geom::Vec2> tag_pos;
    tag_pos.reserve(static_cast<std::size_t>(m));
    for (const Tag& t : sys.tags()) tag_pos.push_back(t.pos);
    const std::vector<int> tag_order = geom::mortonOrder(tag_pos);
    for (std::size_t p = 0; p < tag_order.size(); ++p) {
      ASSERT_EQ(sys.bitTag(static_cast<std::uint32_t>(p)), tag_order[p]);
    }
    std::vector<geom::Vec2> reader_pos;
    reader_pos.reserve(static_cast<std::size_t>(n));
    for (const Reader& r : sys.readers()) reader_pos.push_back(r.pos);
    const std::vector<int> reader_order = geom::mortonOrder(reader_pos);
    for (std::size_t r = 0; r < reader_order.size(); ++r) {
      ASSERT_EQ(sys.rowReader(static_cast<std::uint32_t>(r)), reader_order[r]);
    }

    // Bitmap rows decode back to exactly the CSR coverage lists, and all
    // public results stay in original-id space (schedules/goldens contract).
    for (int v = 0; v < n; ++v) {
      std::vector<int> decoded;
      for (const BitEntry& e : sys.bitRow(v)) {
        for (std::uint64_t bits = e.bits; bits != 0; bits &= bits - 1) {
          const std::uint32_t p = (e.word << 6) +
              static_cast<std::uint32_t>(std::countr_zero(bits));
          decoded.push_back(sys.bitTag(p));
        }
      }
      std::sort(decoded.begin(), decoded.end());
      std::vector<int> want(sys.coverage(v).begin(), sys.coverage(v).end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(decoded, want) << "reader " << v;
    }
  }
}

}  // namespace
}  // namespace rfid::core
