// mcs_ckpt.h — journaled MCS runs: create / validate / resume in one call
// (docs/recovery.md).
//
// openJournal() is the policy layer above the mechanism split between
// ckpt/journal.h (record durability) and the MCS slot loop (verified
// deterministic replay); runMcsCheckpointed() and the streaming driver's
// runStreamingCheckpointed() both run through it.  It derives the run
// identity (algorithm name, seed, deployment hash, fault-plan fingerprint),
// validates any existing journal against it, loads the sidecar snapshot for
// the boundary cross-check, and hands the driver a writer opened in the
// right mode:
//
//   * fresh run:   create the journal (refusing to clobber an existing
//                  one — resume it or remove it explicitly);
//   * resume:      readJournal() (tolerating exactly one torn tail
//                  record), fail closed on any identity mismatch or
//                  interior corruption, truncate the tail, and append.
//
// The resumed run replays the committed prefix through the live loop and
// is bit-identical to an uninterrupted run — schedules, McsResult, and
// exported metrics JSON alike.
#pragma once

#include <cstdint>
#include <string>

#include "ckpt/journal.h"
#include "core/system.h"
#include "sched/mcs.h"
#include "sched/scheduler.h"

namespace rfid::ckpt {

/// FNV-1a over the canonical CSV serialization (workload/saveDeployment):
/// the deployment identity recorded in journal headers and snapshots.  The
/// text is streamed through the hash chunk by chunk, never built whole.
std::uint64_t deploymentHash(const core::System& sys);

struct CheckpointSetup {
  /// Journal path; the snapshot rides at `<path>.snap`.
  std::string path;
  /// Commits between read-state snapshots (<= 0 disables snapshots).
  int snapshot_every = 64;
  /// Resume an existing journal; a missing or invalid journal is an error.
  bool resume = false;
  /// Resume when a journal exists, start fresh otherwise (bench harnesses:
  /// rerunning a killed sweep picks up where it died with no flag change).
  bool auto_resume = false;
  /// Scenario seed recorded in (and checked against) the journal header.
  std::uint64_t seed = 0;
};

/// A journaled run's outcome: runMcsCheckpointed's, and (as
/// sched::StreamingCheckpointedRun) runStreamingCheckpointed's.
template <class Result>
struct BasicCheckpointedRun {
  Result result;
  /// True when an existing journal was validated and replayed.
  bool resumed = false;
  /// Committed slots re-verified from the journal (== result.replayed_slots).
  int replayed_slots = 0;
  /// False on any fail-closed condition: unreadable/corrupt journal,
  /// identity mismatch, replay divergence, or journal-append IO failure.
  /// `result` is meaningless when !ok.
  bool ok = true;
  std::string error;
};

using CheckpointedRun = BasicCheckpointedRun<sched::McsResult>;

/// Runs the covering-schedule loop with crash-safe journaling per `setup`.
/// `opt.journal` / `opt.resume` are overwritten; every other McsOptions
/// field (budget included) passes through to the driver.  With an empty
/// `setup.path` this is exactly runCoveringSchedule(sys, scheduler, opt).
CheckpointedRun runMcsCheckpointed(core::System& sys,
                                   sched::OneShotScheduler& scheduler,
                                   sched::McsOptions opt,
                                   const CheckpointSetup& setup);

/// A journal opened by openJournal; it must outlive the run it is attached
/// to.
struct JournalSession {
  JournalWriter writer;
  JournalData data;
};

/// The create / validate / resume policy (header comment), shared by both
/// journaled drivers.  Opens `setup.path` for the run identified by `algo`,
/// setup.seed, `deployment_hash` and opt.faults, and attaches it to `opt`:
/// opt.journal always, opt.resume when an existing journal was validated.
/// Returns "" on success, else the fail-closed error; `deployment_mismatch`
/// is the error for a journal of another deployment (it names what
/// `deployment_hash` covers).
std::string openJournal(const CheckpointSetup& setup, const std::string& algo,
                        std::uint64_t deployment_hash,
                        const char* deployment_mismatch,
                        JournalSession& session, sched::McsLoopOptions& opt);

/// The error a journaled run failed closed with mid-run (journal write
/// failure, replay divergence), or "" when it did not.
std::string journalRunError(const sched::McsLoopResult& res);

/// The body of runMcsCheckpointed and sched::runStreamingCheckpointed:
/// runs `drive(opt)` journaled per `setup`.  `deployment_hash()` is called
/// only when journaling; with an empty `setup.path` this is exactly
/// drive(opt) with opt.journal and opt.resume cleared.
template <class Result, class Options, class Hash, class Drive>
BasicCheckpointedRun<Result> runJournaled(Options opt,
                                          const CheckpointSetup& setup,
                                          const std::string& algo,
                                          Hash deployment_hash,
                                          const char* deployment_mismatch,
                                          Drive drive) {
  opt.journal = nullptr;
  opt.resume = nullptr;
  BasicCheckpointedRun<Result> run;
  JournalSession session;
  if (!setup.path.empty()) {
    run.error = openJournal(setup, algo, deployment_hash(),
                            deployment_mismatch, session, opt);
    if (!run.error.empty()) {
      run.ok = false;
      return run;
    }
  }
  run.resumed = opt.resume != nullptr;
  run.result = drive(opt);
  run.replayed_slots = run.result.replayed_slots;
  run.error = journalRunError(run.result);
  run.ok = run.error.empty();
  return run;
}

}  // namespace rfid::ckpt
