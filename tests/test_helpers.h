// test_helpers.h — shared fixtures and builders for the test suite.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/system.h"
#include "workload/scenario.h"

namespace rfid::test {

/// Iteration budget for randomized sweeps.  RFIDSCHED_TEST_ITERS overrides
/// every suite's default at once — CI tiers dial the same binaries down for
/// sanitizer runs or up for a soak, without recompiling.  Malformed or
/// non-positive values fall back to the suite default.
inline int iterBudget(int fallback) {
  const char* s = std::getenv("RFIDSCHED_TEST_ITERS");
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 1000000) return fallback;
  return static_cast<int>(v);
}

/// `count` consecutive seeds starting at `base` — the loop variable for
/// budgeted sweeps (`for (auto seed : seedRange(11, iterBudget(4)))`).
inline std::vector<std::uint64_t> seedRange(std::uint64_t base, int count) {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(base + static_cast<std::uint64_t>(i));
  return out;
}

/// std::span has no operator==; materialize for gtest comparisons.
inline std::vector<int> toVec(std::span<const int> s) {
  return {s.begin(), s.end()};
}

/// System::coveredTags(v) as a value, for gtest comparisons.
inline std::vector<int> coveredTags(const core::System& sys, int v) {
  std::vector<int> out;
  sys.coveredTags(v, out);
  return out;
}

/// Every row of a System's coverage index: each tag's coverers and each
/// reader's bitmap row as (word, bits) pairs.  Equal snapshots mean equal
/// indexes, row for row (before and after System::rebuildIndex(), say).
struct IndexSnapshot {
  std::vector<std::vector<int>> coverers;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> bit_rows;
  bool operator==(const IndexSnapshot&) const = default;
};

inline IndexSnapshot indexSnapshot(const core::System& sys) {
  IndexSnapshot s;
  for (int t = 0; t < sys.numTags(); ++t) {
    s.coverers.push_back(toVec(sys.coverers(t)));
  }
  for (int v = 0; v < sys.numReaders(); ++v) {
    auto& row = s.bit_rows.emplace_back();
    for (const core::BitEntry& e : sys.bitRow(v)) {
      row.emplace_back(e.word, e.bits);
    }
  }
  return s;
}

/// A reader at (x, y) with interference radius R and interrogation radius
/// gamma (defaults to R/2).
inline core::Reader makeReader(double x, double y, double R,
                               double gamma = -1.0) {
  core::Reader r;
  r.pos = {x, y};
  r.interference_radius = R;
  r.interrogation_radius = gamma > 0.0 ? gamma : R / 2.0;
  return r;
}

inline core::Tag makeTag(double x, double y) {
  core::Tag t;
  t.pos = {x, y};
  return t;
}

/// The paper's Figure 2 instance: three pairwise-independent readers A, B,
/// C in a row; B's interrogation region overlaps both A's and C's.
///   Tag1 exclusively A;  Tag2 in A∩B;  Tag3 in B∩C;  Tag4 exclusively C;
///   Tag5 exclusively B.
/// w({A,B,C}) = 3 (Tags 1,4,5) and w({A,C}) = 4 (Tags 1,2,3,4) — scheduling
/// fewer readers reads more tags.
inline core::System figure2System() {
  std::vector<core::Reader> readers = {
      makeReader(0.0, 0.0, 10.0, 6.0),    // A
      makeReader(10.0, 0.0, 10.0, 6.0),   // B
      makeReader(20.0, 0.0, 10.0, 6.0),   // C
  };
  // Pairwise distances: 10 and 20 vs max R = 10 → ‖A−B‖ = 10 is NOT > 10…
  // push them slightly apart so they are independent but interrogation
  // disks (radius 6) still overlap.
  readers[1].pos = {10.5, 0.0};
  readers[2].pos = {21.0, 0.0};
  std::vector<core::Tag> tags = {
      makeTag(-4.0, 0.0),   // Tag1: only A (dist A=4, B=14.5)
      makeTag(5.2, 0.0),    // Tag2: A (5.2) and B (5.3)
      makeTag(15.8, 0.0),   // Tag3: B (5.3) and C (5.2)
      makeTag(25.0, 0.0),   // Tag4: only C
      makeTag(10.5, 3.0),   // Tag5: only B
  };
  return core::System(std::move(readers), std::move(tags));
}

/// Small random instance for property sweeps: n readers, m tags, square of
/// side `side`, radii in a modest band so instances stay exactly solvable.
inline core::System smallRandomSystem(std::uint64_t seed, int n = 10,
                                      int m = 60, double side = 40.0) {
  workload::Scenario sc;
  sc.deploy.num_readers = n;
  sc.deploy.num_tags = m;
  sc.deploy.region_side = side;
  sc.deploy.lambda_R = 8.0;
  sc.deploy.lambda_r = 4.0;
  return workload::makeSystem(sc, seed);
}

}  // namespace rfid::test
