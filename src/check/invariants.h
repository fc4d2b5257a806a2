// invariants.h — the runtime correctness oracle (docs/testing.md).
//
// Four optimized/faulted/resumable execution paths now produce schedules,
// and the equivalence tests only prove they agree with *each other*.  The
// ScheduleValidator instead re-verifies every committed slot against the
// paper's definitions, recomputed from first principles:
//
//   * pairwise independence (Definition 2) from raw reader geometry,
//     ‖v_i − v_j‖ > max(R_i, R_j) — never the cached interference graph;
//   * the coverage index itself, once at beginRun: auditCoverageIndex
//     compares every tag's coverers, every reader's decoded coverage and
//     every reader's bitmap row with the rows derived from raw positions
//     (the streaming index oracle, check/index_oracle.h, runs the same
//     audit);
//   * the slot's served set by exactly-one coverage (Definition 1): each
//     unread tag's coverer row, derived from raw positions at beginRun,
//     walked against the slot's radiators — never the coverage index;
//   * for a proposal that carries channels (OneShotResult::channel), both
//     of the above with RTc between same-channel readers only;
//   * monotone read-state growth against a private shadow bitmap;
//   * MCS postconditions (Definition 4 / §III): a run that claims
//     completion left no servable tag unread, no committed slot claimed a
//     weight the referee cannot reproduce, and an early exit is justified
//     (budget, slot cap, stall-out, or every remaining tag truly orphaned
//     by permanent faults).
//
// Every raw-geometry question goes through check/bucket_grid.h, the
// oracle's own bucket grid, so the begin audit and each slot cost
// O(n + m + local pairs).  Only the candidate enumeration is bucketed: each
// predicate (inclusive dist² <= γ² coverage, inclusive dist² <= R_j²
// victims, strict dist² > max(R_i,R_j)² independence) is evaluated exactly
// as written.
//
// The validator plugs into the MCS driver via McsOptions::validator and is
// deliberately *redundant* with the production code: it shares the
// System's data (positions, radii, the fault plan) but none of its derived
// structures, so a corrupted coverage index, a broken lazy-greedy key, or a
// referee regression shows up as a violation instead of a silently wrong
// schedule.  tools/mutation_smoke.sh proves the redundancy has teeth by
// seeding exactly such bugs and asserting the validator flags each one.
//
// Fault plans are first-class: the validator mirrors the driver's referee
// semantics (crash stripping, re-plan benching, loud jamming, interrogation
// misses) from the FaultPlan itself, so a fault-injected run is validated
// against the *faulted* ground truth, not the ideal one.  Checkpoint
// resume needs nothing special — replayed slots re-enter the same driver
// loop and are re-validated exactly like live ones.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/mcs.h"
#include "sched/scheduler.h"

namespace rfid::check {

/// How much redundant work the validator performs per slot.
enum class CheckLevel {
  /// Every invariant listed above; whole-bitmap and coverage-index
  /// cross-checks run once per run (begin/end).
  kNormal,
  /// Additionally re-verifies the full read bitmap, the live coverable
  /// count, and the System's own referee (weight(X) vs the geometric
  /// recount) at *every* slot — an O(m) pass per slot, for debugging.
  kParanoid,
};

struct CheckOptions {
  CheckLevel level = CheckLevel::kNormal;
  /// The scheduler guarantees feasible proposals, same-channel pairs only
  /// for a channeled one (every algorithm except Colorwave's raw color
  /// classes).
  bool expect_feasible = true;
  /// OneShotResult::weight must equal the recomputed no-fault weight of
  /// the proposal, channeled when it carries channels (false for
  /// distributed schedulers running over a faulted control plane).
  bool expect_exact_weight = true;
  /// A committed slot must have strictly positive no-fault weight while
  /// servable tags remain — the greedy MCS postcondition.  False for
  /// schedulers that legitimately stall (Colorwave pre-convergence, lossy
  /// control planes).
  bool expect_progress = true;
  /// The fault plan driving the run's referee (nullptr = clean run).  The
  /// validator verifies the *faulted* semantics against this plan.
  const fault::FaultPlan* faults = nullptr;
  /// Must mirror McsOptions::reprobe_interval — the validator re-derives
  /// the driver's bench ("suspected dead") bookkeeping independently.
  int reprobe_interval = 8;
  /// Stop the run at the first violation (McsStop::kCheckFailed).  With
  /// false the run continues and violations accumulate up to max_issues.
  bool fail_fast = true;
  /// Recorded-issue cap; further violations are counted, not stored.
  int max_issues = 64;
  /// Observability (optional).  Counters: check.slots_checked,
  /// check.violations, check.tags_scanned (tag visits: every tag at
  /// beginRun and at checkRun, the unread tags each slot walks).
  /// Wall-clock (check.slot_us) rides with tracing only, matching the MCS
  /// driver's discipline.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Both coverage directions from positions and radii alone, reader by
/// reader: the tags bucketed in check/bucket_grid.h by the largest γ, each
/// reader's candidates from its own γ disk tested with the inclusive
/// dist² <= γ² predicate, and the reader rows transposed into the tag
/// rows.  It shares nothing with the System's spatial grid, bitmap rows or
/// incremental splices, and costs O(n + m + local pairs).  Departed tags
/// get empty rows, as after System::removeTag.  covr_* is the transpose of
/// cov_*; rows ascend.
struct GeometricCoverage {
  std::vector<int> covr_off;  // numTags()+1
  std::vector<int> covr_idx;
  std::vector<int> cov_off;   // numReaders()+1
  std::vector<int> cov_idx;

  std::span<const int> coverers(int t) const {
    return row(covr_off, covr_idx, t);
  }
  std::span<const int> coveredTags(int v) const {
    return row(cov_off, cov_idx, v);
  }
  static std::span<const int> row(const std::vector<int>& off,
                                  const std::vector<int>& idx, int i) {
    const auto u = static_cast<std::size_t>(i);
    return {idx.data() + off[u], static_cast<std::size_t>(off[u + 1] - off[u])};
  }
};
GeometricCoverage geometricCoverage(const core::System& sys);

/// Which direction of the coverage index a disagreeing row belongs to.
enum class IndexRow { kReader, kTag };

/// Walks `sys`'s coverage index against `geo` (geometricCoverage(sys)) row
/// by row, readers first: each reader's coveredTags(v) must equal its
/// geometric row and its bitRow(v) that row's canonical blocking under
/// sys.tagBit (the non-zero 64-bit words, ascending); then each tag's
/// coverers(t) must equal its geometric row.  Each disagreeing row goes to
/// `sink` with a detail naming it ("reader 3: ..." or "tag 17: ..."), and a
/// false return stops the walk.  True when every row agreed.
bool auditCoverageIndex(
    const core::System& sys, const GeometricCoverage& geo,
    const std::function<bool(IndexRow, const std::string& detail)>& sink);

/// One recorded violation.
struct CheckIssue {
  int slot = -1;          // -1 = run-level (begin/end) issue
  std::string invariant;  // stable id, e.g. "slot.served-mismatch"
  std::string detail;     // human-readable specifics
};

class ScheduleValidator {
 public:
  explicit ScheduleValidator(CheckOptions opt = {});

  // ---- driver hooks (sched/runCoveringSchedule calls these) ----

  /// Captures the shadow read-state, derives the run's coverage rows from
  /// raw geometry (positions do not move during a run) and cross-checks the
  /// System's derived structures against them.  Returns false (fail_fast
  /// only) on a violation — the driver then refuses to run at all.
  bool beginRun(const core::System& sys);

  /// Verifies one slot from first principles, called with the *pre-commit*
  /// read-state (before markRead).  `live` is the post-strip active set the
  /// referee actually executed and `jamming` the loud-crashed radiators —
  /// both empty-equivalent on clean runs, where `live` must equal the
  /// proposal.  Returns false when fail_fast and a violation fired; the
  /// driver then aborts without committing the slot.
  bool checkSlot(const core::System& sys, int slot,
                 const sched::OneShotResult& proposal,
                 std::span<const int> live, std::span<const int> jamming,
                 std::span<const int> served);

  /// Run postconditions.  `max_slots` / `max_stall` are the driver's caps
  /// (legitimate early-exit reasons).  Returns ok().  Releases the rows: a
  /// later run starts with beginRun.
  bool checkRun(const core::System& sys, const sched::McsResult& res,
                int max_slots, int max_stall);

  // ---- results ----

  bool ok() const { return violations_ == 0; }
  /// Total violations seen (recorded + counted past max_issues).
  std::int64_t violations() const { return violations_; }
  const std::vector<CheckIssue>& issues() const { return issues_; }
  std::int64_t slotsChecked() const { return slots_checked_; }
  const CheckOptions& options() const { return opt_; }

  /// Human-readable violation report ("check: N violation(s)" + one line
  /// per recorded issue); writes nothing when ok().
  void report(std::ostream& os) const;

 private:
  void flag(int slot, std::string invariant, std::string detail);
  /// Unread (per shadow) tags with at least one geometric coverer.
  int shadowCoverableCount() const;
  /// True when no future slot, from `slot` on, can serve any unread
  /// coverable tag under the plan's permanent faults.
  bool allOrphaned(const core::System& sys, int slot) const;

  CheckOptions opt_;
  GeometricCoverage geo_;           // beginRun's tag rows, until checkRun
  std::vector<char> shadow_;        // private read-state mirror
  std::vector<int> trusted_from_;   // bench mirror (fault runs)
  int initial_unread_ = 0;
  int initial_uncoverable_ = 0;
  int remaining_coverable_ = 0;     // maintained from served commits
  std::int64_t slots_checked_ = 0;
  std::int64_t violations_ = 0;
  int trailing_stall_ = 0;          // consecutive zero-served slots seen
  std::int64_t sum_served_ = 0;
  bool begun_ = false;
  std::vector<CheckIssue> issues_;
  // Cached metric handles (resolved in beginRun, one pointer test after).
  obs::Counter* c_slots_ = nullptr;
  obs::Counter* c_violations_ = nullptr;
  obs::Counter* c_tags_ = nullptr;
};

}  // namespace rfid::check
