// Structural churn tests (docs/streaming.md): the incremental mutation API
// (System::addTag / removeTag / moveTag) must leave the coverage index (the
// coverers CSR and the bitmap rows) exactly what a from-scratch build over
// the same population would produce, the dirty-reader log must carry
// scheduler caches through churn without a full rebuild, and the
// IncrementalIndexOracle must detect (and heal) a corrupted incremental
// path.
#include <gtest/gtest.h>

#include <vector>

#include "check/index_oracle.h"
#include "core/system.h"
#include "core/weight.h"
#include "geometry/vec2.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "test_helpers.h"
#include "workload/rng.h"

namespace rfid::core {
namespace {

/// Brute-force coverers of a position: the reference the CSR index must
/// match after any mutation sequence.
std::vector<int> naiveCoverers(const System& sys, geom::Vec2 pos) {
  std::vector<int> out;
  for (int v = 0; v < sys.numReaders(); ++v) {
    const Reader& r = sys.reader(v);
    const double g = r.interrogation_radius;
    if (geom::dist2(pos, r.pos) <= g * g) out.push_back(v);
  }
  return out;
}

/// Every coverers row and every decoded bitmap row against raw geometry.
void expectIndexExact(const System& sys) {
  for (int t = 0; t < sys.numTags(); ++t) {
    if (sys.departed(t)) {
      EXPECT_TRUE(sys.coverers(t).empty()) << "departed tag " << t;
      continue;
    }
    EXPECT_EQ(test::toVec(sys.coverers(t)), naiveCoverers(sys, sys.tag(t).pos))
        << "tag " << t;
  }
  for (int v = 0; v < sys.numReaders(); ++v) {
    std::vector<int> expected;
    for (int t = 0; t < sys.numTags(); ++t) {
      if (sys.departed(t)) continue;
      const Reader& r = sys.reader(v);
      const double g = r.interrogation_radius;
      if (geom::dist2(sys.tag(t).pos, r.pos) <= g * g) expected.push_back(t);
    }
    EXPECT_EQ(test::coveredTags(sys, v), expected) << "reader " << v;
  }
}

/// A deterministic churn mix: `rounds` batches of add / move / remove.
void churn(System& sys, workload::Rng& rng, int rounds, double side) {
  for (int i = 0; i < rounds; ++i) {
    Tag t;
    t.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    t.epc = static_cast<std::uint64_t>(1000 + i);
    sys.addTag(t);
    if (sys.numTags() > 2) {
      const int m = rng.uniformInt(0, sys.numTags() - 1);
      if (!sys.departed(m)) {
        sys.moveTag(m, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
      }
      const int d = rng.uniformInt(0, sys.numTags() - 1);
      if (!sys.departed(d)) sys.removeTag(d);
    }
  }
}

TEST(SystemMutation, AddTagSplicesBothDirections) {
  System sys = test::smallRandomSystem(101, 12, 40, 40.0);
  const std::uint64_t epoch0 = sys.structuralEpoch();
  Tag t;
  t.pos = {20.0, 20.0};
  t.epc = 777;
  const int idx = sys.addTag(t);
  EXPECT_EQ(idx, 40);
  EXPECT_EQ(sys.numTags(), 41);
  EXPECT_EQ(sys.tag(idx).epc, 777u);
  EXPECT_FALSE(sys.isRead(idx));
  EXPECT_GT(sys.structuralEpoch(), epoch0);
  expectIndexExact(sys);
}

TEST(SystemMutation, RemoveTagTombstonesAndEmptiesItsRow) {
  System sys = test::smallRandomSystem(102, 12, 40, 40.0);
  int covered = -1;
  for (int t = 0; t < sys.numTags(); ++t) {
    if (!sys.coverers(t).empty()) { covered = t; break; }
  }
  ASSERT_GE(covered, 0);
  sys.removeTag(covered);
  EXPECT_TRUE(sys.departed(covered));
  EXPECT_TRUE(sys.isRead(covered)) << "a departed tag must never gate weight";
  EXPECT_TRUE(sys.coverers(covered).empty());
  expectIndexExact(sys);
}

TEST(SystemMutation, MoveTagRewritesCoverageKeepsReadState) {
  System sys = test::smallRandomSystem(103, 12, 40, 40.0);
  const int t = 5;
  ASSERT_FALSE(sys.isRead(t));
  sys.moveTag(t, {-1000.0, -1000.0});  // far outside every disk
  EXPECT_TRUE(sys.coverers(t).empty());
  EXPECT_FALSE(sys.isRead(t)) << "moving must not serve the tag";
  sys.moveTag(t, sys.tag(0).pos);  // onto another tag's position
  EXPECT_EQ(test::toVec(sys.coverers(t)), test::toVec(sys.coverers(0)));
  expectIndexExact(sys);
}

TEST(SystemMutation, ChurnedIndexMatchesFromScratchRebuild) {
  for (const auto seed : test::seedRange(201, test::iterBudget(4))) {
    System sys = test::smallRandomSystem(seed, 14, 60, 45.0);
    workload::Rng rng(seed ^ 0xc0ffee);
    churn(sys, rng, 40, 45.0);
    expectIndexExact(sys);

    // Every row must agree with a from-scratch rebuild of the same churned
    // population (rebuildIndex shares buildIndex with the ctor).
    const test::IndexSnapshot incremental = test::indexSnapshot(sys);
    sys.rebuildIndex();
    EXPECT_TRUE(test::indexSnapshot(sys) == incremental) << "seed " << seed;
  }
}

TEST(SystemMutation, DirtyLogCarriesWeightCacheThroughChurn) {
  System sys = test::smallRandomSystem(301, 14, 60, 45.0);
  StandaloneWeightCache cache;
  cache.sync(sys);
  ASSERT_EQ(cache.stats().full_builds, 1);

  workload::Rng rng(301);
  churn(sys, rng, 10, 45.0);
  sys.markRead(2);
  cache.sync(sys);
  // Churn rides the diff path, not a rebuild…
  EXPECT_EQ(cache.stats().full_builds, 1);
  EXPECT_EQ(cache.stats().diff_syncs, 1);
  // …and every weight is exactly the from-scratch value.
  ASSERT_EQ(static_cast<int>(cache.weights().size()), sys.numReaders());
  for (int v = 0; v < sys.numReaders(); ++v) {
    EXPECT_EQ(cache.weights()[v], sys.singleWeight(v)) << "reader " << v;
  }

  // A rebuild invalidates the log; the next sync must fall back to a full
  // build instead of trusting a stale cursor.
  sys.rebuildIndex();
  cache.sync(sys);
  EXPECT_EQ(cache.stats().full_builds, 2);
  for (int v = 0; v < sys.numReaders(); ++v) {
    EXPECT_EQ(cache.weights()[v], sys.singleWeight(v)) << "reader " << v;
  }
}

TEST(SystemMutation, GrowthSchedulerMatchesFreshInstanceAfterChurn) {
  // A long-lived scheduler that absorbed churn through epochs/dirty log
  // must propose exactly what a scheduler built from scratch on the
  // churned System proposes.
  System sys = test::smallRandomSystem(401, 14, 60, 45.0);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler longlived(g);
  (void)longlived.schedule(sys);  // warm its caches pre-churn

  workload::Rng rng(401);
  churn(sys, rng, 25, 45.0);

  const sched::OneShotResult after = longlived.schedule(sys);
  const graph::InterferenceGraph g2(sys);  // scheduler keeps a reference
  sched::GrowthScheduler fresh(g2);
  const sched::OneShotResult expected = fresh.schedule(sys);
  EXPECT_EQ(after.readers, expected.readers);
  EXPECT_EQ(after.weight, expected.weight);
}

TEST(IndexOracle, CleanIndexVerifiesOk) {
  System sys = test::smallRandomSystem(501, 12, 40, 40.0);
  workload::Rng rng(501);
  churn(sys, rng, 15, 40.0);
  check::IncrementalIndexOracle oracle;
  EXPECT_EQ(oracle.verify(sys, 0), check::IndexVerdict::kOk);
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.divergences(), 0);
}

TEST(IndexOracle, CadenceGatesOnStructuralEpochs) {
  System sys = test::smallRandomSystem(502, 12, 40, 40.0);
  check::IndexOracleOptions oo;
  oo.every_epochs = 5;
  check::IncrementalIndexOracle oracle(oo);
  EXPECT_EQ(oracle.checkSlot(sys, 0), check::IndexVerdict::kSkipped)
      << "a pristine system is at epoch distance 0 — nothing to verify";
  workload::Rng rng(502);
  churn(sys, rng, 3, 40.0);  // 3 rounds ≥ 5 epochs (add+move+remove each)
  EXPECT_EQ(oracle.checkSlot(sys, 1), check::IndexVerdict::kOk);
  EXPECT_EQ(oracle.checkSlot(sys, 2), check::IndexVerdict::kSkipped)
      << "epoch distance reset by the verification";
  EXPECT_EQ(oracle.checks(), 1);
}

TEST(IndexOracle, DetectsAndHealsSeededCorruption) {
  System sys = test::smallRandomSystem(503, 12, 40, 40.0);
  sys.testOnlyCorruptIndex();
  check::IncrementalIndexOracle oracle;
  EXPECT_EQ(oracle.verify(sys, 7), check::IndexVerdict::kHealed);
  EXPECT_EQ(oracle.divergences(), 1);
  EXPECT_EQ(oracle.heals(), 1);
  EXPECT_TRUE(oracle.ok()) << "healed corruption leaves the run usable";
  ASSERT_FALSE(oracle.issues().empty());
  EXPECT_EQ(oracle.issues()[0].slot, 7);
  EXPECT_EQ(oracle.issues()[0].invariant, "index.divergence");
  // The swapped coverers entries are a tag row's disagreement.
  EXPECT_EQ(oracle.issues()[0].detail.rfind("tag ", 0), 0u)
      << oracle.issues()[0].detail;
  // The heal really restored the index.
  expectIndexExact(sys);
  EXPECT_EQ(oracle.verify(sys, 8), check::IndexVerdict::kOk);
  // Fail-closed: after a divergence the oracle ignores its cadence and
  // verifies every call.
  EXPECT_TRUE(oracle.options().paranoid);
}

TEST(IndexOracle, CorruptVerdictWhenHealingDisabled) {
  System sys = test::smallRandomSystem(504, 12, 40, 40.0);
  sys.testOnlyCorruptIndex();
  check::IndexOracleOptions oo;
  oo.self_heal = false;
  check::IncrementalIndexOracle oracle(oo);
  EXPECT_EQ(oracle.verify(sys, 0), check::IndexVerdict::kCorrupt);
  EXPECT_FALSE(oracle.ok());
}

}  // namespace
}  // namespace rfid::core
