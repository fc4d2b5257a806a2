// index_oracle.h — self-healing validation of the incremental coverage
// index (docs/streaming.md).
//
// The streaming driver mutates core::System's coverers CSR and bitmap rows
// in place (addTag / removeTag / moveTag).  Those splices are the one
// derived structure the ScheduleValidator cannot re-derive cheaply per
// slot, and a single missed delta silently corrupts every weight the
// schedulers compute from then on.  The IncrementalIndexOracle closes that
// hole the same way check/invariants.h does for slots: periodically derive
// the expected index from *raw geometry* — check::geometricCoverage, which
// buckets the tags in the oracle's own grid (check/bucket_grid.h), takes
// each reader's candidates from its γ disk and transposes the reader rows
// into tag rows (O(n + m + local pairs)), sharing no code with the
// incremental splices, the spatial grid or the bitmap rows — and compare
// the live index with it row by row through check::auditCoverageIndex, the
// audit ScheduleValidator::beginRun runs: every tag's coverers, every
// reader's decoded coverage and every reader's bitmap row.
//
// On a divergence the oracle fails the incremental path closed: it records
// the issue, bumps `check.index_divergence`, switches itself to paranoid
// cadence (every later call verifies), and — with self_heal on — rebuilds
// the index from scratch via System::rebuildIndex() and re-verifies.  A
// heal that restores agreement lets a production stream continue degraded
// but correct (`check.index_heals`); a rebuild that still disagrees means
// the geometry itself is inconsistent and the run must stop.  Under the
// CLI's --check the driver treats *any* divergence, healed or not, as an
// invariant violation (exit 5); tools/mutation_smoke.sh seeds a skipped
// covr delta and asserts exactly that.
#pragma once

#include <cstdint>
#include <vector>

#include "check/invariants.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfid::check {

struct IndexOracleOptions {
  /// Structural epochs between verifications: checkSlot() verifies once at
  /// least this many mutations accumulated since the last verification
  /// (<= 0 never, unless paranoid).  The cadence rides on epochs, not
  /// slots, so an idle stream costs nothing and a bursty one is checked
  /// proportionally to the churn it absorbed.
  int every_epochs = 64;
  /// Verify on every checkSlot() call regardless of epoch progress — also
  /// catches corruption that never bumped the epoch (--check=paranoid).
  bool paranoid = false;
  /// Rebuild from scratch and re-verify after a divergence.
  bool self_heal = true;
  /// Counters: check.index_checks / check.index_divergence /
  /// check.index_heals.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

enum class IndexVerdict {
  kSkipped,  // cadence not due; nothing inspected
  kOk,       // verified: live index matches raw geometry
  kHealed,   // diverged, rebuilt, re-verified clean
  kCorrupt,  // diverged and not restored (heal off, or rebuild disagrees)
};

class IncrementalIndexOracle {
 public:
  explicit IncrementalIndexOracle(IndexOracleOptions opt = {});

  /// Cadence-gated verification; the streaming driver calls this once per
  /// loop iteration after applying churn.  `slot` only labels issues.
  IndexVerdict checkSlot(core::System& sys, int slot);

  /// Unconditional verification (tests, run teardown).
  IndexVerdict verify(core::System& sys, int slot);

  std::int64_t checks() const { return checks_; }
  std::int64_t divergences() const { return divergences_; }
  std::int64_t heals() const { return heals_; }
  /// True while no *unhealed* corruption has been seen.
  bool ok() const { return divergences_ == heals_; }
  const std::vector<CheckIssue>& issues() const { return issues_; }
  const IndexOracleOptions& options() const { return opt_; }

 private:
  IndexOracleOptions opt_;
  std::uint64_t verified_epoch_ = 0;  // epoch at the last verification
  std::int64_t checks_ = 0;
  std::int64_t divergences_ = 0;
  std::int64_t heals_ = 0;
  std::vector<CheckIssue> issues_;
  // Cached handles (resolved lazily; one pointer test when detached).
  obs::Counter* c_checks_ = nullptr;
  obs::Counter* c_divergences_ = nullptr;
  obs::Counter* c_heals_ = nullptr;
};

}  // namespace rfid::check
