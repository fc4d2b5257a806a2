// reference_paths.h — the straightforward implementations the optimized
// production paths are held bit-identical to (docs/performance.md); linked
// into the test binaries only.  The raw-geometry references answer the
// oracle's questions (coverage, served set, victims, feasibility) by
// brute force over every reader, radiator pair and tag, so the bucket grid
// in check/ is held to a scan with no candidate enumeration at all.  The
// coverers referee walks every tag's
// System::coverers() row and counts the radiators among them; it reads
// only coverers(), isRead() and the reader accessors — never bitRow() or
// coveredTags() — so the bitmap kernels are held to an index they do not
// read.  ScanGrowthScheduler picks Alg2's coordinator by a full rescan of
// every alive reader's marginal delta, and ScanMultiChannelScheduler picks
// each multi-channel climb step the same way.  (The serial PTAS reference
// is PtasOptions::num_threads = 1; the scan GHC is
// HillClimbingScheduler(false).)  optimalCoveringScheduleSize is the exact
// minimum covering schedule of a tiny instance, the ground truth the
// Theorem 1 tests hold the greedy MCS loop to.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "core/system.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"

namespace rfid::test::ref {

/// check::geometricCoverage by brute force: every reader against every
/// non-departed tag, O(n·m).
check::GeometricCoverage geometricCoverage(const core::System& sys);

/// RTc victims among `X` from raw positions, by brute force: X[i] is a
/// victim when another radiator holds it inside its interference disk
/// (inclusive dist² <= R_j²) and shares its channel or jams.  `channel` is
/// empty (one channel) or aligned with X; `jamming` readers are
/// channel-blind.  Aligned with X.
std::vector<char> geometricVictims(const core::System& sys,
                                   std::span<const int> X,
                                   std::span<const int> channel = {},
                                   std::span<const int> jamming = {});

/// Definition 1 from raw positions, by brute force over all tags and
/// radiators (X ∪ jamming): the unread tags exactly one radiator covers
/// (inclusive dist² <= γ²), that one a non-victim member of X.  Ascending.
std::vector<int> geometricServed(const core::System& sys,
                                 std::span<const int> X,
                                 std::span<const int> channel = {},
                                 std::span<const int> jamming = {});

/// The first pair (X[i], X[j]), i < j in X's order, of same-channel readers
/// that violate Definition 2 (not dist² > max(R_i,R_j)²); none when X is
/// channel-feasible.
std::optional<std::pair<int, int>> firstDependentPair(
    const core::System& sys, std::span<const int> X,
    std::span<const int> channel = {});

/// w(X) of Definition 3.
int weight(const core::System& sys, std::span<const int> X);

/// The tags w(X) counts, ascending.  `jamming` readers radiate but read
/// nothing (the fault model's loud failures); X and jamming are disjoint.
std::vector<int> wellCoveredTags(const core::System& sys,
                                 std::span<const int> X,
                                 std::span<const int> jamming = {});

/// Both standalone questions from one walk over the tags.
struct StandaloneCensus {
  /// weights[v] = w({v}): unread tags in v's interrogation disk.
  std::vector<int> weights;
  /// Unread tags some reader covers; the MCS loop runs until this is zero.
  int unread_coverable = 0;
};
StandaloneCensus standaloneCensus(const core::System& sys);

/// The exact Minimum Covering Schedule size of a tiny instance: the
/// Theorem 1 ground truth.  MCS is NP-hard (§III reduces from geometric set
/// cover), but a breadth-first search over the lattice of unread-tag sets,
/// where one transition activates any feasible scheduling set and retires
/// its well-covered tags, answers it exactly.  Only maximal well-covered
/// outcomes are tried (dominance pruning).  O(2^m · F) for m coverable tags
/// and F useful feasible sets.
struct OptimalMcsResult {
  /// Exact minimum number of slots to serve every coverable unread tag;
  /// -1 if the search exceeded its budget.
  int slots = -1;
  /// States expanded by the BFS.
  std::int64_t states = 0;
};

/// Computes the exact MCS size for the system's current unread set.
/// Requires numReaders ≤ 20 and coverable unread tags ≤ 22 (asserted).
/// `max_states` bounds the BFS frontier work (0 = 4M default).
OptimalMcsResult optimalCoveringScheduleSize(const core::System& sys,
                                             std::int64_t max_states = 0);

/// Same schedule and Stats as sched::GrowthScheduler at every thread count
/// (it bills no metrics or cost: only the schedule is the reference).
class ScanGrowthScheduler final : public sched::OneShotScheduler {
 public:
  explicit ScanGrowthScheduler(const graph::InterferenceGraph& g,
                               sched::GrowthOptions opt = {})
      : graph_(&g), opt_(opt) {}

  std::string name() const override { return "Alg2"; }
  sched::OneShotResult schedule(const core::System& sys) override;
  const sched::GrowthScheduler::Stats& lastStats() const { return stats_; }

 private:
  const graph::InterferenceGraph* graph_;
  sched::GrowthOptions opt_;
  sched::GrowthScheduler::Stats stats_;
};

/// Same schedule as sched::MultiChannelScheduler: each step scans every
/// unchosen reader for the first channel with no conflicting co-channel
/// member and takes the largest positive marginal delta (lowest index on
/// ties), O(n·C·|X|) per pick.  The weight is geometricServed's count; it
/// bills no metrics or cost.
class ScanMultiChannelScheduler final : public sched::OneShotScheduler {
 public:
  explicit ScanMultiChannelScheduler(sched::ChannelOptions opt = {})
      : opt_(opt) {}

  std::string name() const override {
    return "MC" + std::to_string(opt_.num_channels);
  }
  sched::OneShotResult schedule(const core::System& sys) override;

 private:
  sched::ChannelOptions opt_;
};

/// Decorator that fails the running test unless, at every schedule() call,
/// the System referee agrees with the coverers referee at the live read-state:
/// singleWeight of every reader and unreadCoverableCount before forwarding
/// to `inner`, weight and wellCoveredTags of the returned set after.  Those
/// are the referee answers Alg2 and the clean MCS driver consume, so by
/// induction over slots an audited run commits what a run on the coverers
/// referee would.
class RefereeAudit final : public sched::OneShotScheduler {
 public:
  explicit RefereeAudit(sched::OneShotScheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  sched::OneShotResult schedule(const core::System& sys) override;
  std::uint64_t stateFingerprint() const override {
    return inner_->stateFingerprint();
  }
  int calls() const { return calls_; }

 private:
  sched::OneShotScheduler* inner_;
  int calls_ = 0;
};

}  // namespace rfid::test::ref
