// weight.h — incremental weight evaluation and lazy-greedy selection.
//
// The exact solver, the PTAS enumeration, and GHC all explore feasible sets
// by adding/removing one reader at a time.  Recomputing w(X) from scratch at
// every node is O(Σ coverage); the incremental evaluator keeps the per-tag
// coverage multiplicities live so each push/pop costs only the coverage of
// the moved reader, and the weight is available in O(1).
//
// On top of the evaluator sits the lazy-greedy selection machinery the
// coordinator pick loops (Alg2, GHC) use instead of rescanning all n
// readers' marginal deltas every iteration:
//
//   * StandaloneWeightCache keeps w({v}) for every reader across MCS slots,
//     refreshed incrementally from the read-state diff — only readers
//     covering a tag served in the previous slot are touched.
//   * LazyGreedyQueue answers argmax_v peekDelta(v) with a max-heap whose
//     keys are kept *exact* through the inverted tag→readers index: when a
//     reader is committed, exactly the readers sharing one of its unread
//     tags receive the per-tag delta adjustment.  (The textbook Minoux
//     stale-upper-bound variant is inadmissible here: RRc makes marginal
//     deltas non-monotone — a shared singly-covered tag that gains a second
//     coverer *raises* every other coverer's delta by 1 — so stale keys can
//     under-estimate and a lazy pop could return the wrong argmax.  Exact
//     incremental keys cost the same inverted-index walk and keep the
//     selection bit-identical to the reference scan; docs/performance.md.)
//
// The evaluator assumes the maintained set stays *feasible* (pairwise
// independent) — under feasibility there are no RTc victims, so
//   w(X) = #{ unread tags covered by exactly one reader of X }.
// Callers (B&B, PTAS, GHC) only ever extend by independent readers, so this
// holds by construction.  For arbitrary sets use System::weight.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/system.h"

namespace rfid::core {

/// Maintains w(X) under push/pop of readers for a feasible X.
///
/// The evaluator reads the System's live tag read-state: weights always
/// refer to *currently unread* tags, which is exactly the per-slot semantics
/// of Definition 3 inside the MCS loop.
class WeightEvaluator {
 public:
  explicit WeightEvaluator(const System& sys);

  /// Adds reader v to the maintained set.  Returns the weight delta, which
  /// may be negative: v's exclusive unread tags enter, while tags that were
  /// exclusively covered by an existing member and are also covered by v
  /// leave (RRc, Figure 2's phenomenon).
  int push(int v);

  /// Removes the most recently pushed reader (LIFO, matching search
  /// backtracking).  Returns the weight delta (negation of the push delta
  /// when the read-state has not changed in between).
  int pop();

  /// Current w(X).
  int weight() const { return weight_; }

  /// Members in push order.
  std::span<const int> members() const { return stack_; }

  int size() const { return static_cast<int>(stack_.size()); }

  /// Weight delta that push(v) *would* return, without mutating state.
  int peekDelta(int v) const;

  /// Coverage multiplicity of tag `t` within the maintained set (read tags
  /// included — the lazy-greedy invalidation walk classifies transitions by
  /// this value right after a push).
  int multiplicity(int t) const { return count_[sys_->tagBit(t)]; }

  const System& system() const { return *sys_; }

  /// Self-audit for the check:: oracle and the property tests: recomputes
  /// every per-tag multiplicity and the weight from scratch against the
  /// System's current read-state and compares them to the incrementally
  /// maintained values.  O(Σ coverage of members).  On mismatch returns
  /// false and, when `why` is non-null, describes the first divergence.
  bool checkInvariants(std::string* why = nullptr) const;

  /// push/pop operations since construction — each walks exactly one bitmap
  /// coverage row, so this doubles as the evaluator's weight_evals and
  /// csr_rows contribution to a CostBill.  peekDelta is deliberately NOT
  /// counted here: it is called from debug asserts (LazyGreedyQueue) and
  /// from reference scans that gate their own counting, and a counter bump
  /// inside it would make the tally differ between build types.
  std::int64_t ops() const { return ops_; }

  /// Drops all members.
  void clear();

 private:
  /// push (by = +1) / pop (by = -1) of reader v's coverage row.
  int shift(int v, int by);

  const System* sys_;
  std::vector<int> count_;  // per-tag multiplicity within X, by tag bit
  std::vector<int> stack_;
  int weight_ = 0;
  std::int64_t ops_ = 0;
};

/// Cross-slot cache of standalone weights w({v}) = |unread ∩ coverage(v)|.
///
/// sync() must be called with the current System before each selection
/// round.  The first call (or a deployment change, detected via
/// System::instanceId) builds the cache in one full pass; later calls walk
/// the read-state diff against an internal shadow bitmap and adjust only
/// the coverers of flipped tags — the MCS meta-loop's cross-slot refresh
/// touches exactly the readers covering a tag served in the previous slot.
///
/// Structural churn (System::addTag/removeTag/moveTag) rides the same diff
/// mechanism: the cache keeps a cursor into the System's dirty-reader log
/// and recomputes exactly the rows mutations touched since the last sync,
/// then runs the ordinary read-diff walk skipping those rows (they are
/// already exact).  A cursor behind the log window (compaction, or a
/// rebuildIndex self-heal) falls back to one full build.
class StandaloneWeightCache {
 public:
  /// Deterministic work accounting across sync() calls: a full build is a
  /// cache miss (n reader rows recomputed), a diff sync is a hit
  /// (one coverers row refreshed per flipped tag, plus one row per unique
  /// dirty-log reader).
  struct Stats {
    std::int64_t full_builds = 0;
    std::int64_t diff_syncs = 0;
    std::int64_t rows_refreshed = 0;
  };

  void sync(const System& sys);

  /// weights()[v] == sys.singleWeight(v) as of the last sync().
  std::span<const int> weights() const { return standalone_; }

  const Stats& stats() const { return stats_; }

 private:
  std::uint64_t sys_id_ = 0;
  std::uint64_t dirty_cursor_ = 0;  // System dirty-log position consumed
  std::vector<int> standalone_;
  // Shadow of System::readBits() as of the last sync, indexed by tag bit
  // position (stable for a tag's lifetime).  The diff walk XORs whole
  // 64-tag blocks, so an unchanged block costs one compare, not 64 polls.
  std::vector<std::uint64_t> shadow_bits_;
  std::uint32_t shadow_nbits_ = 0;  // tag bits tracked at last sync
  std::vector<char> dirty_mask_;    // per-sync scratch over readers
  Stats stats_;
};

/// Exact lazy-greedy argmax over marginal deltas of a WeightEvaluator.
///
/// Contract (per selection round):
///   1. beginRound(eval, candidates, seeds) with an *empty* evaluator;
///      seeds[v] must equal peekDelta(v) under the empty set, i.e. the
///      standalone weight (StandaloneWeightCache::weights()).
///   2. pickBest(eligible) returns the eligible candidate with the maximum
///      strictly-positive delta (ties → lowest index), exactly matching the
///      reference O(n·coverage) scan.  A popped ineligible candidate is
///      dropped for the rest of the round, so eligibility must only shrink
///      (both greedy loops only ever kill / block readers).  After -1 is
///      returned the round is exhausted.
///   3. After every eval.push(v) of the round, call invalidate(v) so the
///      keys of readers sharing an unread tag with v are adjusted.
///
/// The heap holds (key, reader) entries under lazy deletion: every key
/// adjustment pushes a fresh entry, and pops discard entries whose key no
/// longer matches the reader's current exact delta.  Total work per commit
/// is one inverted-index walk of the committed reader's unread coverage.
class LazyGreedyQueue {
 public:
  void beginRound(const WeightEvaluator& eval, std::span<const int> candidates,
                  std::span<const int> seeds);

  int pickBest(std::span<const char> eligible, int* delta_out = nullptr);

  void invalidate(int v);

  /// O(1) key adjustments + heap operations performed since construction —
  /// the work measure reported to sched.* counters (each unit is far
  /// cheaper than one reference peekDelta scan; docs/performance.md).
  std::int64_t workUnits() const { return work_units_; }

  /// Heap entries popped since construction, and the subset discarded as
  /// lazily-deleted (key superseded by a later adjustment).  Their ratio is
  /// the queue's churn — the report tool surfaces it next to the cache hit
  /// rate.
  std::int64_t pops() const { return pops_; }
  std::int64_t stalePops() const { return stale_pops_; }

 private:
  void adjust(int v, int by);

  const WeightEvaluator* eval_ = nullptr;
  const System* sys_ = nullptr;
  std::vector<int> value_;                 // exact peekDelta per candidate
  std::vector<std::pair<int, int>> heap_;  // (key, reader), lazy deletion
  std::vector<int> row_;                   // invalidate()'s coverage row
  std::int64_t work_units_ = 0;
  std::int64_t pops_ = 0;
  std::int64_t stale_pops_ = 0;
};

}  // namespace rfid::core
