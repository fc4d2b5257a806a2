// mcs_loop.h — the MCS slot step, internal to src/sched/.  Both covering
// drivers run it: runCoveringSchedule (sched/mcs.h) for a fixed tag
// population, runStreamingMcs (sched/streaming.h) for a churning one.
//
// One step() is one slot of the paper's §III loop: budget charge,
// heartbeat, schedule(), cancel-discard, fault split, referee bill,
// validator, journal append or replay check, markRead, on_commit, the
// SlotRecord, the slot's cost bill, stall and mcs.* counters, and the
// snapshot cross-check or write.  finish() closes the run's accounting.
//
// Two indices, kept apart:
//   * the committed-slot index (McsLoopResult::slots) numbers journal
//     records, the replay lookup, on_commit, and the budget's slot cap;
//   * the clock passed to step() is what every fault-plan and channel query
//     speaks in.  The static driver's clock is the committed-slot index; a
//     stream's is its stream clock, which also counts idle fast-forwarded
//     slots.
#pragma once

#include <vector>

#include "obs/timer.h"
#include "sched/mcs.h"

namespace rfid::sched {

class McsSlotLoop {
 public:
  /// Opens the mcs.run span and resolves the counters.  `validator` is
  /// checked on every slot (nullptr: none); the caller runs its beginRun
  /// and checkRun.  `opt` and `res` must outlive the loop.
  McsSlotLoop(core::System& sys, OneShotScheduler& scheduler,
              const McsLoopOptions& opt, check::ScheduleValidator* validator,
              McsLoopResult& res);
  McsSlotLoop(const McsSlotLoop&) = delete;
  McsSlotLoop& operator=(const McsSlotLoop&) = delete;

  /// Runs one slot with fault-plan clock `clock`.  `settled`: the tag
  /// population can no longer change, so the orphan early exit may fire.
  /// Returns false when the run ends here, either before the slot committed
  /// (budget, orphans, check, journal, replay) or after it (snapshot,
  /// stall-out); committed() tells which.
  bool step(int clock, bool settled);
  /// Whether the last step() committed its slot, and the tags it served.
  bool committed() const { return committed_; }
  const std::vector<int>& served() const { return served_; }

  /// End-of-run accounting: unconsumed journal records fail the run closed,
  /// the orphan count settles against the last clock before `clock_end`,
  /// and a faulted run exports the fault.mcs.* gauges.
  void finish(int clock_end);
  /// The closing trace instants: ckpt.replay after a verified replay, then
  /// mcs.done.
  void traceDone(bool completed);

 private:
  core::System& sys_;
  OneShotScheduler& scheduler_;
  const McsLoopOptions& opt_;
  check::ScheduleValidator* validator_;
  McsLoopResult& res_;
  // The whole fault machinery is gated on one flag: with no plan (or an
  // all-zero one) every slot takes exactly the pre-fault sequence of calls,
  // so such runs are bit-identical to the un-instrumented driver.
  const fault::FaultPlan* plan_;
  bool faulty_;
  bool checkpointing_;
  // Root of the causal span tree; every mcs.slot span (and, through the
  // thread stack, the scheduler spans under it) nests here.
  obs::ScopedTimer run_span_;
  obs::Counter* c_slots_ = nullptr;
  obs::Counter* c_tags_ = nullptr;
  obs::Counter* c_stalls_ = nullptr;
  obs::Histogram* h_proposed_ = nullptr;
  obs::Histogram* h_tags_ = nullptr;
  obs::Counter* c_crashed_ = nullptr;
  obs::Counter* c_replanned_ = nullptr;
  obs::Counter* c_missed_ = nullptr;
  obs::Counter* c_faulty_slots_ = nullptr;
  obs::Counter* c_slots_lost_ = nullptr;
  obs::Counter* c_ckpt_slots_ = nullptr;
  obs::Counter* c_ckpt_snaps_ = nullptr;
  // Failure-detector memory: reader -> first clock at which it is trusted
  // again.  Populated when a crashed activation is observed, consulted to
  // strip ("re-plan around") benched readers from later proposals.
  std::vector<int> trusted_from_;
  int stall_ = 0;
  bool committed_ = false;
  std::vector<int> served_;
};

}  // namespace rfid::sched
