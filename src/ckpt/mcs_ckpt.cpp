#include "ckpt/mcs_ckpt.h"

#include <fstream>
#include <sstream>

#include "fault/fault_plan.h"
#include "workload/io.h"

namespace rfid::ckpt {

std::uint64_t deploymentHash(const core::System& sys) {
  // FNV-1a chains over chunks, so hashing the serializer's chunks as they
  // come equals hashing the whole text without ever holding it.
  std::uint64_t h = kFnv1aBasis;
  workload::serializeDeployment(
      sys, [&h](std::string_view chunk) { h = fnv1a(chunk, h); });
  return h;
}

namespace {

/// Names the first identity field that disagrees, for an actionable error.
std::string describeHeaderMismatch(const JournalHeader& want,
                                   const JournalHeader& got,
                                   const char* deployment_mismatch) {
  if (got.version != want.version) return "journal version mismatch";
  if (got.algo != want.algo) {
    return "algorithm mismatch: journal records '" + got.algo +
           "', this run uses '" + want.algo + "'";
  }
  if (got.seed != want.seed) return "seed mismatch";
  if (got.deployment_hash != want.deployment_hash) return deployment_mismatch;
  if (got.fault_hash != want.fault_hash) {
    return "fault-plan mismatch: journal recorded a different fault script";
  }
  return "journal header mismatch";
}

/// Loads `<path>.snap` if present, valid, and consistent with this run:
/// right deployment hash and a slot the journal actually reaches.  Anything
/// else is ignored — the journal is the source of truth and the snapshot
/// only adds a redundant boundary cross-check.
std::optional<Snapshot> loadSnapshot(const std::string& snap_path,
                                     std::uint64_t deployment_hash,
                                     int committed_slots) {
  std::ifstream is(snap_path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  Snapshot snap;
  std::uint64_t dep = 0;
  if (!decodeSnapshot(buf.str(), &snap, &dep)) return std::nullopt;
  if (dep != deployment_hash) return std::nullopt;
  if (snap.slot <= 0 || snap.slot > committed_slots) return std::nullopt;
  return snap;
}

}  // namespace

std::string openJournal(const CheckpointSetup& setup, const std::string& algo,
                        std::uint64_t deployment_hash,
                        const char* deployment_mismatch,
                        JournalSession& session, sched::McsLoopOptions& opt) {
  JournalHeader header;
  header.algo = algo;
  header.seed = setup.seed;
  header.deployment_hash = deployment_hash;
  header.fault_hash = opt.faults != nullptr ? opt.faults->fingerprint() : 0;

  session.writer.snapshot_every = setup.snapshot_every;
  std::string err;
  const bool exists = static_cast<bool>(std::ifstream(setup.path));
  if ((setup.resume || setup.auto_resume) && exists) {
    std::optional<JournalData> loaded = readJournal(setup.path, &err);
    if (!loaded.has_value()) return err;
    if (!(loaded->header == header)) {
      return describeHeaderMismatch(header, loaded->header,
                                    deployment_mismatch);
    }
    session.data = std::move(*loaded);
    session.data.snapshot =
        loadSnapshot(setup.path + ".snap", header.deployment_hash,
                     static_cast<int>(session.data.slots.size()));
    if (!session.writer.openAppend(setup.path, header,
                                   session.data.valid_bytes, &err)) {
      return err;
    }
    opt.resume = &session.data;
  } else if (setup.resume) {
    return "cannot resume: no journal at " + setup.path;
  } else {
    // Fresh run.  create() itself refuses to clobber an existing journal
    // (O_EXCL), which turns "forgot --resume" into a loud error instead of
    // a silently discarded run history.
    if (!session.writer.create(setup.path, header, &err)) return err;
  }
  opt.journal = &session.writer;
  return "";
}

std::string journalRunError(const sched::McsLoopResult& res) {
  if (res.stop == sched::McsStop::kJournalError) {
    return "journal write failed at slot " + std::to_string(res.slots) +
           " (disk full?)";
  }
  if (res.stop == sched::McsStop::kReplayMismatch) {
    return "replay diverged from journal at slot " +
           std::to_string(res.replayed_slots) +
           " (journal was recorded by a different run configuration?)";
  }
  return "";
}

CheckpointedRun runMcsCheckpointed(core::System& sys,
                                   sched::OneShotScheduler& scheduler,
                                   sched::McsOptions opt,
                                   const CheckpointSetup& setup) {
  return runJournaled<sched::McsResult>(
      std::move(opt), setup, scheduler.name(),
      [&sys] { return deploymentHash(sys); },
      "deployment mismatch: journal belongs to a different deployment",
      [&](const sched::McsOptions& o) {
        return sched::runCoveringSchedule(sys, scheduler, o);
      });
}

}  // namespace rfid::ckpt
