// streaming.h — the churn-hardened streaming MCS driver (docs/streaming.md).
//
// runCoveringSchedule() serves a *fixed* tag population until it is
// covered.  runStreamingMcs() serves a *churning* one: a workload::ChurnTrace
// schedules tag arrivals, departures, and moves against the stream clock,
// the driver applies each batch through core::System's incremental mutation
// API (addTag / removeTag / moveTag), and the scheduler replans every busy
// slot against whatever population is currently in the field.  Each busy
// slot is the MCS driver's own slot step (sched/mcs_loop.h) — same referee,
// same fault semantics, same journal records, same cost bills — run on the
// stream clock, so a stream fed the *empty* trace commits exactly the
// slots, tags, and cost ledger of runCoveringSchedule (the equivalence the
// metamorphic tests pin).
//
// Overload control: a real portal cannot let backlog grow without bound
// when arrivals outpace service.  Two knobs, both off by default and both
// accounted as graceful degradation rather than silent loss:
//   * deadline aging  — a tag unread for more than `shed_after_slots`
//     stream slots is shed (its inventory window passed);
//   * backlog bound   — when unread coverable tags exceed `max_backlog`,
//     the excess is shed per service::ShedPolicy (kRejectNewest drops the
//     most recent arrivals; kRejectLargest drops the tags with the most
//     covering readers — the RRc-expensive ones that cost the most slots
//     to serve).
// Shed tags are marked read (they leave the workload) and counted in
// StreamingResult::shed / shed_aged and the stream.* metrics.
//
// Self-healing validation: an attached check::IncrementalIndexOracle is
// consulted every loop iteration (it gates itself on structural-epoch
// cadence); a divergence heals in place in production mode, or stops the
// run with McsStop::kCheckFailed when `fail_on_divergence` is armed
// (the CLI's --check, exit 5).
//
// Checkpointing: runStreamingCheckpointed() runs ckpt::runMcsCheckpointed's
// journal policy with the churn trace folded into the journal's deployment
// identity — a journal recorded under one trace can never silently resume
// under another.  A resumed stream replays the committed prefix through
// this exact loop and is bit-identical to an uninterrupted run.
#pragma once

#include <cstdint>

#include "ckpt/mcs_ckpt.h"
#include "core/system.h"
#include "sched/mcs.h"
#include "sched/scheduler.h"
#include "service/queue.h"
#include "workload/churn.h"

namespace rfid::check {
class IncrementalIndexOracle;
}

namespace rfid::sched {

/// The MCS loop's options (sched/mcs.h documents each field; faults and
/// channel speak in the stream clock, on_commit in busy slots) plus the
/// stream's own.  A stream takes no check::ScheduleValidator: its shadow
/// ledger is sized at beginRun and does not follow System::addTag.
struct StreamingOptions : McsLoopOptions {
  /// Self-healing index validation (nullptr = trust the incremental path).
  check::IncrementalIndexOracle* oracle = nullptr;
  /// Stop with McsStop::kCheckFailed on *any* oracle divergence, healed or
  /// not — the --check contract (a healed index is still a detected bug).
  bool fail_on_divergence = false;
  /// Overload control (see the header comment; 0 disables each knob).
  int max_backlog = 0;
  service::ShedPolicy shed_policy = service::ShedPolicy::kRejectNewest;
  int shed_after_slots = 0;
  /// Wall-clock seconds one stream slot represents — only converts
  /// tags_read into the reported tags_per_sec, never drives control flow.
  double slot_seconds = 0.01;
};

/// The MCS loop's results (`slots` counts busy slots, the ones the
/// scheduler ran; `uncoverable` counts initial and arrived tags no reader
/// covers) plus the stream's own.
struct StreamingResult : McsLoopResult {
  int idle_slots = 0;    // empty-backlog slots fast-forwarded
  int stream_slots = 0;  // total stream clock consumed (busy + idle)
  // ---- churn accounting ----
  int arrived = 0;
  int departed = 0;
  int moved = 0;
  /// Trace events dropped because their target was out of range or already
  /// departed (a corrupt or mismatched trace; each is counted, not fatal).
  int skipped_events = 0;
  // ---- overload control ----
  int shed = 0;          // backlog-bound sheds
  int shed_aged = 0;     // deadline-aged sheds
  int backlog_peak = 0;  // max unread coverable tags after shedding
  // ---- service quality ----
  double latency_mean = 0.0;  // slots from arrival to read (served tags)
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double tags_per_sec = 0.0;  // tags_read / (stream_slots * slot_seconds)
  /// Every coverable tag that entered the field was served or shed by the
  /// end (the stream's notion of completion).
  bool drained = false;
  // ---- oracle summary (zeros when no oracle attached) ----
  std::int64_t index_checks = 0;
  std::int64_t index_divergences = 0;
  std::int64_t index_heals = 0;
};

/// Runs the streaming loop, mutating `sys` structurally and in read-state.
/// `trace` events are applied at their slot in trace order; events at slots
/// the stream has already passed apply immediately (counted, not skipped).
StreamingResult runStreamingMcs(core::System& sys, OneShotScheduler& scheduler,
                                const workload::ChurnTrace& trace,
                                const StreamingOptions& opt = {});

using StreamingCheckpointedRun = ckpt::BasicCheckpointedRun<StreamingResult>;

/// ckpt::runMcsCheckpointed for streams: the same create / validate /
/// resume policy, with churnTraceHash folded into the header's deployment
/// identity.  With an empty `setup.path` this is exactly runStreamingMcs.
StreamingCheckpointedRun runStreamingCheckpointed(
    core::System& sys, OneShotScheduler& scheduler,
    const workload::ChurnTrace& trace, StreamingOptions opt,
    const ckpt::CheckpointSetup& setup);

}  // namespace rfid::sched
