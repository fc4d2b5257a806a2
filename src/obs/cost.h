// cost.h — deterministic per-phase / per-slot cost attribution.
//
// Wall-clock histograms (obs/timer.h) tell you where the *time* went, but
// they are non-deterministic, so CI cannot diff them and a refactor's cost
// shift hides inside scheduling jitter.  A CostBill is the deterministic
// twin: a fixed-layout ledger line of *work units* — weight evaluations,
// standalone-cache syncs and refreshes, lazy-greedy queue operations, CSR
// rows walked, branch & bound nodes, network traffic — that depends only on
// (deployment, algorithm, seed, fault plan), never on thread count or
// machine speed.
//
// The accumulation discipline mirrors the repo's parallel-determinism rule
// (docs/performance.md): workers accumulate bills into *private* structs
// (one per interaction component / PTAS shift), and the owner reduces them
// in serial order before charging the shared CostLedger.  The ledger itself
// is therefore single-threaded by contract — it is only ever touched from
// the thread that called schedule()/runCoveringSchedule — and its JSON
// export is bit-identical for every `--threads` value (tests/test_cost.cpp
// holds this byte-for-byte).
//
// CostBill is a plain struct: callers accumulate locals unconditionally (the
// increments ride on loops that already walk the data being counted).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include <map>
#include <vector>

namespace rfid::obs {

/// One line of deterministic work accounting.  Field semantics
/// (docs/observability.md has the long form):
///   weight_evals    — exact weight-engine operations: WeightEvaluator
///                     push/pop, reference peekDelta scans, and System
///                     referee evaluations (w(X) / wellCoveredTags calls).
///   csr_rows        — coverage rows walked end-to-end (one unit per
///                     reader→tags bitmap row or tag→readers CSR list
///                     traversal).
///   cache_hits      — StandaloneWeightCache syncs served by the read-state
///                     diff walk (the cache was reusable).
///   cache_misses    — syncs that had to rebuild the cache in full (first
///                     use or deployment change).
///   cache_refreshes — per-tag refresh walks performed by diff syncs plus
///                     per-reader recomputations performed by full builds.
///   queue_pops      — LazyGreedyQueue heap entries popped…
///   queue_stale_pops— …of which lazily-deleted (superseded key) entries.
///   queue_work      — total O(1) queue operations (seeds, pops, key
///                     adjustments) — LazyGreedyQueue::workUnits.
///   dp_entries      — PTAS memoized (square, context) states.
///   bnb_nodes       — branch & bound nodes expanded.
///   net_messages    — network message-hops delivered.
///   net_rounds      — synchronous network rounds executed.
struct CostBill {
  std::int64_t weight_evals = 0;
  std::int64_t csr_rows = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_refreshes = 0;
  std::int64_t queue_pops = 0;
  std::int64_t queue_stale_pops = 0;
  std::int64_t queue_work = 0;
  std::int64_t dp_entries = 0;
  std::int64_t bnb_nodes = 0;
  std::int64_t net_messages = 0;
  std::int64_t net_rounds = 0;

  void add(const CostBill& o);
  void subtract(const CostBill& o);
  bool zero() const;
  /// The headline scalar the perf-regression gate tracks: total search
  /// effort behind the schedule (weight engine + queue + DP + B&B).  Cache
  /// bookkeeping and network traffic are tracked per-field instead — they
  /// trade against the search terms, so folding them in would let a
  /// regression hide inside its own mitigation.
  std::int64_t workUnits() const {
    return weight_evals + queue_work + dp_entries + bnb_nodes;
  }
  bool operator==(const CostBill& o) const = default;

  /// Deterministic JSON object on one line, fields in declaration order:
  /// {"weight_evals":0,...}.  No trailing newline.
  void writeJson(std::ostream& os) const;
};

/// Field table for generic consumers (JSON export, the report tool, the
/// bench recorder): declaration order, stable names.
struct CostField {
  const char* name;
  std::int64_t CostBill::* member;
};
inline constexpr CostField kCostFields[] = {
    {"weight_evals", &CostBill::weight_evals},
    {"csr_rows", &CostBill::csr_rows},
    {"cache_hits", &CostBill::cache_hits},
    {"cache_misses", &CostBill::cache_misses},
    {"cache_refreshes", &CostBill::cache_refreshes},
    {"queue_pops", &CostBill::queue_pops},
    {"queue_stale_pops", &CostBill::queue_stale_pops},
    {"queue_work", &CostBill::queue_work},
    {"dp_entries", &CostBill::dp_entries},
    {"bnb_nodes", &CostBill::bnb_nodes},
    {"net_messages", &CostBill::net_messages},
    {"net_rounds", &CostBill::net_rounds},
};

/// Serial-order sink for CostBills.  charge() adds a bill to a named phase
/// (dot-separated, e.g. "alg2.selection"); commitSlot() appends the next
/// MCS slot's bill (the driver computes it as the delta of total() across
/// the slot).  NOT thread-safe — by design: every charge must happen on the
/// owning thread, in program order, which is exactly what makes the export
/// reproducible.  Phases iterate name-sorted; slots in commit order.
class CostLedger {
 public:
  CostLedger() = default;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  void charge(std::string_view phase, const CostBill& bill);
  void commitSlot(const CostBill& bill);

  /// Sum over all phases (slot bills are a re-slicing of the same charges,
  /// not additional cost; an aborted slot's charges stay in the phase
  /// totals without a slot line, so Σ slots <= total).
  const CostBill& total() const { return total_; }
  /// Phase bill, or nullptr if never charged.
  const CostBill* phase(std::string_view name) const;
  std::size_t numPhases() const { return phases_.size(); }
  std::size_t numSlots() const { return slots_.size(); }
  const CostBill& slot(std::size_t i) const { return slots_[i]; }

  /// Deterministic JSON: {"total":{...},"phases":{...},"slots":[...]}.
  /// `indent` spaces prefix every emitted line; no trailing newline.
  void writeJson(std::ostream& os, int indent = 0) const;
  bool writeJsonFile(const std::string& path) const;

 private:
  std::map<std::string, CostBill, std::less<>> phases_;
  std::vector<CostBill> slots_;
  CostBill total_;
};

}  // namespace rfid::obs
