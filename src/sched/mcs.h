// mcs.h — the Minimum Covering Schedule greedy driver (paper §III).
//
// "At the q-th time-slot, choose a feasible scheduling set with maximum
//  weight and let them be active; terminate when there are no unread tags
//  remained."  (Theorem 1: with an exact per-slot MWFS this is a log n
//  approximation of the minimum covering schedule.)
//
// The driver iterates any OneShotScheduler, marks the well-covered tags of
// each slot as read (the tag goes passive, Definition 4), and records the
// full schedule.  It is the referee: whatever set a scheduler proposes is
// re-evaluated with the Definition 1 semantics — infeasible proposals (e.g.
// a not-yet-converged Colorwave class) simply serve fewer tags, exactly as
// the physics would dictate.  A proposal that carries channels
// (OneShotResult::channel) is refereed in the channel model of
// core::System::wellCoveredTags: RTc only between same-channel readers.
//
// With a fault::FaultPlan attached the referee also injects the plan's
// failures (docs/faults.md): crashed proposal members read nothing (loud
// crashes still jam their interference disk), the driver re-plans around
// readers it has seen fail, interrogation misses re-arm individual tags,
// and the loop terminates early once every remaining coverable tag is
// orphaned by permanently dead readers.  An empty plan takes none of these
// paths — the run is bit-identical to one with no plan at all.
//
// The slot body lives once, in sched/mcs_loop.h: runCoveringSchedule and
// the streaming driver (sched/streaming.h) both run it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ckpt/budget.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"

namespace rfid::fault {
class FaultPlan;
}

namespace rfid::ckpt {
class JournalWriter;
struct JournalData;
}  // namespace rfid::ckpt

namespace rfid::check {
class ScheduleValidator;
}

namespace rfid::sched {

/// The MCS slot loop's options, shared by both drivers: runCoveringSchedule
/// here and runStreamingMcs (sched/streaming.h).  Each driver adds its own
/// fields in a derived struct (McsOptions, StreamingOptions).
struct McsLoopOptions {
  /// Absolute cap on committed slots (guards against pathological
  /// schedulers).  A stream's idle fast-forwarded slots are free.
  int max_slots = 100000;
  /// Abort after this many consecutive zero-progress slots.  A stalled
  /// randomized baseline (Colorwave before convergence) may waste slots;
  /// a *persistently* stalled one would loop forever.
  int max_stall = 500;
  /// Observability (both optional; nullptr = off, existing call sites
  /// compile unchanged).  With `metrics` the driver maintains the counters
  /// `mcs.slots` / `mcs.tags_read` / `mcs.stall_slots` and the
  /// distributions `mcs.slot_proposed_readers` / `mcs.slot_tags_read`.
  /// With `trace` it additionally emits one kSlot span per executed slot
  /// (proposed set size, claimed vs. delivered weight, running stall
  /// count) plus the wall-clock histogram `mcs.slot_us` — wall-clock data
  /// rides with tracing only, so metrics-only runs stay deterministic.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Deterministic cost attribution (optional).  Share one CostLedger with
  /// the scheduler (OneShotScheduler::attachCost): the scheduler charges
  /// its per-phase bills during schedule(), the driver adds the referee's
  /// "mcs.referee" bill, and for every *committed* slot the driver commits
  /// the slot's total bill (the ledger delta across the slot) so the export
  /// carries a per-slot work timeline next to the per-phase totals.  All
  /// charges happen on the driving thread in program order, so the JSON is
  /// bit-identical across --threads counts — including replayed resumes,
  /// which recompute every slot through this same loop (obs/cost.h).
  obs::CostLedger* cost = nullptr;
  /// Fault injection (both optional).  `faults` drives the referee: reader
  /// crash intervals, interrogation misses, and orphan-aware termination.
  /// `channel` is stepped to the current slot index before every schedule()
  /// call so an attached distributed scheduler sees the same outage window
  /// the referee charges.  With `faults` null or empty the driver takes the
  /// exact pre-fault code path (bit-identical results and metrics).  Both
  /// speak in the driver's clock: the committed-slot index for the static
  /// driver, the stream clock (busy + idle slots) for a stream.
  const fault::FaultPlan* faults = nullptr;
  fault::ChannelModel* channel = nullptr;
  /// A reader seen crashed stays benched ("suspected dead") for this many
  /// subsequent slots: the driver strips it from proposals (re-planning),
  /// then re-probes so a recovered reader rejoins.  <= 0 disables benching.
  int reprobe_interval = 8;
  /// Execution budget (optional).  Charged at every slot boundary; a fired
  /// budget ends the run with a valid best-so-far result marked
  /// `interrupted`.  A slot whose schedule() call observed the budget's
  /// CancelToken is discarded, never committed, so the committed prefix of
  /// an interrupted run is always a prefix of the uninterrupted trajectory
  /// (the anytime contract, docs/recovery.md).  Callers who also want the
  /// schedulers to stop mid-search attach budget->token() themselves
  /// (OneShotScheduler::attachCancel).
  ckpt::RunBudget* budget = nullptr;
  /// Liveness heartbeat (optional).  Bumped once per driver loop iteration
  /// — before the slot's schedule() call — with a relaxed atomic add, so an
  /// external watchdog (src/service/) can distinguish a run that is slowly
  /// making slot progress from one wedged inside a single schedule() call.
  /// The heartbeat carries no data and decides nothing: results are
  /// bit-identical with or without it.
  std::atomic<std::int64_t>* progress = nullptr;
  /// Crash-safe journaling (optional).  With `journal` attached the driver
  /// appends one record per committed slot and writes a periodic atomic
  /// snapshot of the read-state bitmap.  With `resume` attached the driver
  /// first *replays* the journal's committed prefix through this exact loop
  /// — same schedule() calls, same referee verdicts, same metric bumps —
  /// verifying every slot against its record (and the snapshot against the
  /// replayed bitmap at its boundary), then switches to live appending.
  /// Any divergence stops with McsStop::kReplayMismatch; an append/snapshot
  /// IO failure stops with McsStop::kJournalError.  Both nullptr: the run
  /// is bit-identical to the pre-checkpoint driver.
  ckpt::JournalWriter* journal = nullptr;
  const ckpt::JournalData* resume = nullptr;
  /// Commit hook (optional).  Called once per committed slot, after the
  /// referee's verdict is applied (markRead) — arguments are the
  /// committed-slot index (never a stream's clock), the proposed active
  /// set, and the served tags.  Fires on replayed resumes too (they
  /// recompute every slot through the same loop), so an observer's totals
  /// match a fresh run.  The hook observes and must not mutate the system;
  /// nullptr keeps the driver bit-identical to the pre-hook one.  Used by
  /// the link-layer co-simulation (protocol/) to consume slots online
  /// without sched depending on protocol.
  std::function<void(int slot, std::span<const int> active,
                     std::span<const int> served)>
      on_commit;
};

struct McsOptions : McsLoopOptions {
  /// Runtime invariant oracle (optional; check/invariants.h).  The driver
  /// calls beginRun before the loop, checkSlot on every slot *before*
  /// committing it (journal append / markRead), and checkRun after natural
  /// termination.  A fail-fast violation ends the run with
  /// McsStop::kCheckFailed, the offending slot never committed.  The
  /// validator's CheckOptions must carry the same fault plan and
  /// reprobe_interval as this struct.  nullptr: the driver is bit-identical
  /// to the unchecked one.
  check::ScheduleValidator* validator = nullptr;
};

/// Why runCoveringSchedule returned (kNone: natural termination — covered,
/// stalled out, or hit McsOptions::max_slots).
enum class McsStop {
  kNone,
  kSlotCap,         // budget: committed-slot cap reached
  kDeadline,        // budget: wall-clock deadline passed
  kCancelled,       // budget: explicit cancellation
  kJournalError,    // checkpoint: journal append / snapshot write failed
  kReplayMismatch,  // checkpoint: replay diverged from the journal
  kCheckFailed,     // check: the invariant oracle flagged a violation
};

const char* mcsStopName(McsStop s);

/// One executed time-slot.
struct SlotRecord {
  std::vector<int> active;   // the set the scheduler proposed
  std::vector<int> channel;  // its channels (empty: single-channel)
  int tags_read = 0;         // well-covered tags actually served
};

/// Degradation accounting for a fault-injected run (all zero otherwise):
/// how far the achieved schedule fell short of the ideal one, and why.
struct McsDegradation {
  /// Slots where any fault touched execution (crash, bench, miss, jamming).
  int faulty_slots = 0;
  /// Faulty slots that served zero tags but would have served some had the
  /// proposal executed unfaulted — air time wholly lost to faults.
  int slots_lost = 0;
  /// Proposal members that were crashed when their slot executed.
  int crashed_activations = 0;
  /// Proposal members stripped pre-execution because the driver had seen
  /// them fail within the last reprobe_interval slots.
  int replanned_activations = 0;
  /// Well-covered tags lost to interrogation misses (still unread after).
  int tags_missed = 0;
  /// Coverable tags left unread that no future slot could serve: every
  /// coverer permanently dead, or permanently jammed / victimized by a
  /// loud-dead reader's stuck transmitter (the unservable-forever
  /// predicate; see runCoveringSchedule).
  int tags_orphaned = 0;
  /// Tags the executed proposals would have served with no faults injected
  /// (the per-slot ideal counterfactual, summed).  Achieved coverage is
  /// McsResult::tags_read; the gap is the price of the fault plan.
  int ideal_tags_read = 0;
};

/// The MCS slot loop's results, shared by both drivers (McsResult,
/// StreamingResult).
struct McsLoopResult {
  /// Committed slots, including zero-progress slots (they cost real time
  /// on air).  For the static driver this is the size of the covering
  /// schedule.
  int slots = 0;
  int tags_read = 0;
  /// Unread tags that no reader covers (can never be served — excluded
  /// from the covering requirement, Definition 4 covers only the monitored
  /// region M).
  int uncoverable = 0;
  std::vector<SlotRecord> schedule;
  /// Fault accounting (all zero without an attached non-empty FaultPlan).
  McsDegradation degradation;
  /// True when an armed RunBudget ended the run early (stop names why).
  /// The result is still valid — a verbatim prefix of the uninterrupted
  /// trajectory — and, when journaled, resumable to the full run.
  bool interrupted = false;
  McsStop stop = McsStop::kNone;
  /// Committed slots re-verified from the journal (resume runs only).
  int replayed_slots = 0;
};

struct McsResult : McsLoopResult {
  /// True iff every coverable tag was served within the slot caps.  Stays
  /// false when permanent reader deaths orphan tags: the schedule
  /// terminated, but it does not cover M.
  bool completed = false;
};

/// Runs the greedy covering-schedule loop, mutating `sys`'s read-state.
/// Call sys.resetReads() first if the system was used before.
McsResult runCoveringSchedule(core::System& sys, OneShotScheduler& scheduler,
                              const McsOptions& opt = {});

}  // namespace rfid::sched
