// scheduler.h — the one-shot scheduler interface (Definition 6).
//
// A OneShotScheduler answers one question: given the current system state
// (deployment + which tags are still unread), which feasible scheduling set
// should be activated in the next time-slot?  Every algorithm in the paper
// and both baselines implement this interface, so the MCS greedy driver
// (sched/mcs.h) and the figure harnesses treat them uniformly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/budget.h"
#include "core/system.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfid::fault {
class ChannelModel;
}

namespace rfid::sched {

/// Outcome of one one-shot scheduling decision.
struct OneShotResult {
  /// The chosen scheduling set (reader indices, ascending).  For all
  /// algorithms except raw Colorwave classes this is feasible by
  /// construction; the MCS driver re-checks with the Definition 1 referee
  /// regardless.
  std::vector<int> readers;
  /// w(readers) as evaluated by the System at decision time.
  int weight = 0;
  /// The channel assignment (§VII): empty for the paper's single-channel
  /// model, otherwise channel[i] is readers[i]'s channel.  Every referee of
  /// a slot (the MCS step, the validator, the link replay) passes it on to
  /// core::System::wellCoveredTags, which then confines RTc to each
  /// channel.  (The initializer lets `{readers, weight}` stay a complete
  /// initialization.)
  std::vector<int> channel = {};
};

/// Interface shared by Algorithm 1 (PTAS), Algorithm 2 (growth-bounded),
/// Algorithm 3 (distributed), Colorwave, GHC, and the exact solver.
///
/// schedule() is non-const because several algorithms carry internal state
/// across slots (Colorwave keeps its coloring; randomized algorithms keep
/// their RNG stream).  Implementations must not mutate the System.
class OneShotScheduler {
 public:
  virtual ~OneShotScheduler() = default;

  /// Human-readable name used in tables and figure legends.
  virtual std::string name() const = 0;

  /// Picks the scheduling set for the next slot given the current unread
  /// set of `sys`.
  virtual OneShotResult schedule(const core::System& sys) = 0;

  /// Observability: attach a metrics registry (nullptr detaches).  Every
  /// implementation then reports the shared counters
  /// `sched.schedule_calls`, `sched.weight_evals` (exact w(X)/marginal
  /// evaluations, incl. branch & bound nodes) and `sched.candidates`
  /// (algorithm-specific search breadth: DP states, coordinator picks,
  /// color classes, …).  Attach one registry per scheduler to keep
  /// algorithms separable (the bench harness does exactly that).
  void attachMetrics(obs::MetricsRegistry* m) { metrics_ = m; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Attaches a trace sink (nullptr detaches).  Only schedulers with
  /// internal structure worth tracing use it — the distributed algorithms
  /// forward it to their network simulator, which then emits per-round
  /// kRound events.
  void attachTrace(obs::TraceSink* t) { trace_ = t; }
  obs::TraceSink* trace() const { return trace_; }

  /// Attaches a deterministic cost ledger (nullptr detaches).  Every
  /// implementation then charges per-phase CostBills — alg2 its cache
  /// sync / selection / B&B phases, alg1 its shift enumeration, the
  /// distributed algorithms their network traffic — always from the thread
  /// that called schedule(), in program order (obs/cost.h).  The ledger is
  /// typically shared with the MCS driver, which additionally slices the
  /// same charges per slot.
  void attachCost(obs::CostLedger* c) { cost_ = c; }
  obs::CostLedger* cost() const { return cost_; }

  /// Attaches a fault channel model (nullptr detaches).  Only the
  /// distributed algorithms override this — they forward it to their
  /// network simulator, making the control plane lossy and crash-prone.
  /// Centralized schedulers exchange no messages, so the default ignores
  /// it (their faults act only at the MCS referee, sched/mcs.h).
  virtual void attachChannel(fault::ChannelModel*) {}

  /// Attaches a cooperative cancellation token (nullptr detaches).  Every
  /// implementation polls it at its own checkpoints — per coordinator pick,
  /// per shift, per protocol round, and every few thousand branch & bound
  /// nodes — and on cancellation returns the best valid (feasible) set it
  /// has so far.  The MCS driver discards a proposal computed under a fired
  /// token, so cancellation never perturbs committed results
  /// (docs/recovery.md, the anytime contract).
  void attachCancel(const ckpt::CancelToken* c) { cancel_ = c; }
  const ckpt::CancelToken* cancelToken() const { return cancel_; }

  /// A fingerprint of the scheduler's evolving cross-slot state — its RNG
  /// cursor, in journal terms (ckpt/journal.h SlotEntry::fp).  Stateless
  /// schedulers return 0; Colorwave hashes its coloring + slot cursor and
  /// Algorithm 3 reports its per-slot salt.  Recorded after every committed
  /// slot and re-verified on journal replay, so a resume whose scheduler
  /// state diverged from the original run fails closed instead of silently
  /// continuing a different trajectory.
  virtual std::uint64_t stateFingerprint() const { return 0; }

 protected:
  /// True once the attached token (if any) has fired; implementations use
  /// this as their cancellation checkpoint predicate.
  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }

  /// Bumps the shared per-schedule counters; no-op when detached.
  void recordScheduleMetrics(std::int64_t weight_evals,
                             std::int64_t candidates) const;

  /// Charges `bill` to `phase` on the attached ledger; no-op when detached.
  void chargeCost(std::string_view phase, const obs::CostBill& bill) const {
    if (cost_ != nullptr) cost_->charge(phase, bill);
  }

  /// True when some observer wants deterministic work counts — the gate
  /// around per-step tallies (GHC's climb steps) a detached run skips.
  bool countingWork() const { return metrics_ != nullptr || cost_ != nullptr; }

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  obs::CostLedger* cost_ = nullptr;
  const ckpt::CancelToken* cancel_ = nullptr;
};

}  // namespace rfid::sched
