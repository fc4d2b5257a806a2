// Core model tests: coverage precomputation, Definition 1/2/3 semantics,
// read-state, and the paper's worked examples (Figures 1 and 2).
#include <gtest/gtest.h>

#include "core/system.h"
#include "test_helpers.h"
#include "workload/rng.h"

namespace rfid::core {
namespace {

using test::figure2System;
using test::makeReader;
using test::makeTag;

TEST(Reader, ValidityInvariant) {
  EXPECT_TRUE(makeReader(0, 0, 10.0, 5.0).valid());
  EXPECT_TRUE(makeReader(0, 0, 10.0, 10.0).valid());  // gamma == R allowed
  Reader bad = makeReader(0, 0, 5.0, 5.0);
  bad.interrogation_radius = 6.0;  // gamma > R violates the model
  EXPECT_FALSE(bad.valid());
  bad.interrogation_radius = 0.0;
  EXPECT_FALSE(bad.valid());
}

TEST(Reader, IndependenceDefinition2) {
  const Reader a = makeReader(0, 0, 10.0);
  const Reader b = makeReader(10.0, 0, 4.0);
  // dist = 10 is NOT > max(10, 4): b sits on a's interference boundary.
  EXPECT_FALSE(independent(a, b));
  const Reader c = makeReader(10.5, 0, 4.0);
  EXPECT_TRUE(independent(a, c));
  // Symmetry even with asymmetric radii.
  EXPECT_EQ(independent(a, c), independent(c, a));
  EXPECT_EQ(independent(a, b), independent(b, a));
}

TEST(System, CoverageBothWays) {
  const System sys = figure2System();
  // Reader A (index 0) covers Tag1 and Tag2.
  EXPECT_EQ(test::coveredTags(sys, 0), (std::vector<int>{0, 1}));
  // Reader B covers Tag2, Tag3, Tag5.
  EXPECT_EQ(test::coveredTags(sys, 1), (std::vector<int>{1, 2, 4}));
  // Reader C covers Tag3, Tag4.
  EXPECT_EQ(test::coveredTags(sys, 2), (std::vector<int>{2, 3}));
  // Inverse maps.
  EXPECT_EQ(test::toVec(sys.coverers(1)), (std::vector<int>{0, 1}));
  EXPECT_EQ(test::toVec(sys.coverers(4)), (std::vector<int>{1}));
}

TEST(System, FeasibilityPairwise) {
  const System sys = figure2System();
  EXPECT_TRUE(sys.isFeasible(std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(sys.isFeasible(std::vector<int>{0, 2}));
  EXPECT_TRUE(sys.isFeasible(std::vector<int>{}));
  EXPECT_FALSE(sys.isFeasible(std::vector<int>{0, 0}));  // duplicate
}

TEST(System, InfeasibleWhenInterfering) {
  std::vector<Reader> readers = {makeReader(0, 0, 10.0), makeReader(5, 0, 3.0)};
  const System sys(std::move(readers), {makeTag(1, 0)});
  EXPECT_FALSE(sys.isFeasible(std::vector<int>{0, 1}));
}

// The paper's Figure 2: w({A,B,C}) = 3 < w({A,C}) = 4.
TEST(System, Figure2WeightParadox) {
  const System sys = figure2System();
  EXPECT_EQ(sys.weight(std::vector<int>{0, 1, 2}), 3);
  EXPECT_EQ(sys.weight(std::vector<int>{0, 2}), 4);
  EXPECT_EQ(sys.wellCoveredTags(std::vector<int>{0, 1, 2}),
            (std::vector<int>{0, 3, 4}));
  EXPECT_EQ(sys.wellCoveredTags(std::vector<int>{0, 2}),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(System, SingleWeightCountsWholeInterrogationDisk) {
  const System sys = figure2System();
  EXPECT_EQ(sys.singleWeight(0), 2);  // Tags 1, 2
  EXPECT_EQ(sys.singleWeight(1), 3);  // Tags 2, 3, 5
  EXPECT_EQ(sys.singleWeight(2), 2);  // Tags 3, 4
}

// Figure 1(b): an RTc victim reads nothing, but its signal still denies the
// overlap tags of others (it keeps radiating).
TEST(System, RtcVictimReadsNothing) {
  std::vector<Reader> readers = {
      makeReader(0, 0, 20.0, 5.0),   // A: big interference disk
      makeReader(10, 0, 4.0, 3.0),   // B inside A's interference region
  };
  std::vector<Tag> tags = {
      makeTag(1, 0),    // inside A's interrogation only
      makeTag(10, 1),   // inside B's interrogation only
  };
  const System sys(std::move(readers), std::move(tags));
  ASSERT_FALSE(sys.isFeasible(std::vector<int>{0, 1}));
  // Activating both: B is a victim (inside A's disk), so tag 1 is lost;
  // A is NOT a victim (A is outside B's 4-radius disk), so tag 0 is read.
  EXPECT_EQ(sys.wellCoveredTags(std::vector<int>{0, 1}), (std::vector<int>{0}));
  EXPECT_EQ(sys.weight(std::vector<int>{0, 1}), 1);
  // Alone, each serves its own tag.
  EXPECT_EQ(sys.weight(std::vector<int>{0}), 1);
  EXPECT_EQ(sys.weight(std::vector<int>{1}), 1);
}

TEST(System, MutualRtcKillsBothReaders) {
  std::vector<Reader> readers = {
      makeReader(0, 0, 10.0, 5.0),
      makeReader(5, 0, 10.0, 5.0),
  };
  std::vector<Tag> tags = {makeTag(-3, 0), makeTag(8, 0)};
  const System sys(std::move(readers), std::move(tags));
  EXPECT_EQ(sys.weight(std::vector<int>{0, 1}), 0);
  EXPECT_TRUE(sys.wellCoveredTags(std::vector<int>{0, 1}).empty());
}

// A victim's interrogation region still participates in RRc (Definition 1,
// third condition says "no other reader v_j in X", not "active reader").
TEST(System, VictimStillCausesRrc) {
  std::vector<Reader> readers = {
      makeReader(0, 0, 30.0, 6.0),   // A
      makeReader(8, 0, 6.5, 6.0),    // B: victim of A, overlaps A's region
  };
  std::vector<Tag> tags = {
      makeTag(4, 0),   // covered by A (4) and B (4) both
  };
  const System sys(std::move(readers), std::move(tags));
  // B is a victim; the tag is covered by two readers of X → nobody reads it.
  EXPECT_EQ(sys.weight(std::vector<int>{0, 1}), 0);
}

TEST(System, ReadStateLifecycle) {
  System sys = figure2System();
  EXPECT_EQ(sys.unreadCount(), 5);
  EXPECT_EQ(sys.unreadCoverableCount(), 5);
  sys.markRead(0);
  EXPECT_TRUE(sys.isRead(0));
  EXPECT_EQ(sys.unreadCount(), 4);
  EXPECT_EQ(sys.weight(std::vector<int>{0, 2}), 3);  // Tag1 no longer counts
  sys.markRead(std::vector<int>{1, 2});
  EXPECT_EQ(sys.unreadCount(), 2);
  sys.resetReads();
  EXPECT_EQ(sys.unreadCount(), 5);
  EXPECT_EQ(sys.weight(std::vector<int>{0, 2}), 4);
}

TEST(System, UncoverableTagsTracked) {
  std::vector<Reader> readers = {makeReader(0, 0, 10.0, 5.0)};
  std::vector<Tag> tags = {makeTag(1, 0), makeTag(50, 50)};
  System sys(std::move(readers), std::move(tags));
  EXPECT_EQ(sys.unreadCount(), 2);
  EXPECT_EQ(sys.unreadCoverableCount(), 1);
  EXPECT_TRUE(sys.coverers(1).empty());
}

TEST(System, EmptySetHasZeroWeight) {
  const System sys = figure2System();
  EXPECT_EQ(sys.weight(std::vector<int>{}), 0);
  EXPECT_TRUE(sys.wellCoveredTags(std::vector<int>{}).empty());
}

TEST(System, WeightScratchBufferIsRestored) {
  // Repeated evaluations must not leak multiplicity state.
  const System sys = figure2System();
  const int w1 = sys.weight(std::vector<int>{0, 1, 2});
  const int w2 = sys.weight(std::vector<int>{0, 1, 2});
  EXPECT_EQ(w1, w2);
  const int w3 = sys.weight(std::vector<int>{0, 2});
  EXPECT_EQ(w3, 4);
}

TEST(System, IdsAreRewrittenToIndices) {
  std::vector<Reader> readers = {makeReader(0, 0, 5.0), makeReader(20, 0, 5.0)};
  readers[0].id = 42;
  readers[1].id = 17;
  std::vector<Tag> tags = {makeTag(1, 1)};
  tags[0].id = 99;
  const System sys(std::move(readers), std::move(tags));
  EXPECT_EQ(sys.reader(0).id, 0);
  EXPECT_EQ(sys.reader(1).id, 1);
  EXPECT_EQ(sys.tag(0).id, 0);
}

// Weight subadditivity: w(X1 ∪ X2) ≤ w(X1) + w(X2) for disjoint feasible
// unions — the §IV complication, checked on random instances.
TEST(System, WeightIsSubadditive) {
  workload::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const System sys = test::smallRandomSystem(1000 + static_cast<std::uint64_t>(trial));
    // Split readers into two halves; feasibility not required for the
    // inequality to be interesting, but use singletons to keep X feasible.
    std::vector<int> x1, x2;
    for (int v = 0; v < sys.numReaders(); ++v) {
      (v % 2 == 0 ? x1 : x2).push_back(v);
    }
    std::vector<int> both = x1;
    both.insert(both.end(), x2.begin(), x2.end());
    EXPECT_LE(sys.weight(both), sys.weight(x1) + sys.weight(x2));
  }
}

}  // namespace
}  // namespace rfid::core
