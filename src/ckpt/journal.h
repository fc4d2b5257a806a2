// journal.h — crash-safe journaled MCS execution (docs/recovery.md).
//
// The MCS driver appends one JSONL record per *committed* slot to an
// append-only journal, so a killed process loses at most the slot it was
// writing.  Each record carries everything the resume validator needs to
// re-verify a deterministic replay: the proposed active set, the tags
// actually served, the fault referee's verdicts (crashed / re-planned /
// missed / ideal counterfactual), the fault-plan epoch, and the scheduler's
// state fingerprint (its RNG cursor for the stateful algorithms), plus a
// CRC32 over the record bytes.
//
// Durability model: records are written with a single write(2) each and no
// per-record fsync — page-cache writes survive SIGKILL of the process
// (fsync only buys power-loss durability, which slot records do not need).
// A crash can therefore tear at most the final record; readJournal()
// tolerates *exactly one* torn tail record by dropping it and fails closed
// on any interior corruption, header damage, or slot-sequence gap.
// Snapshots of the read-state bitmap ride beside the journal at
// `<path>.snap`, written atomically (tmp + fsync + rename,
// ckpt/atomic_file.h) every `snapshot_every` commits, and are cross-checked
// against the replayed state at their slot boundary.
//
// Resume contract (enforced by sched/runCoveringSchedule +
// ckpt/mcs_ckpt.h): a journal-resumed run replays the committed prefix
// through the exact live code path — same schedule() calls, same referee
// evaluations, same metric bumps — verifying each slot against its record,
// then continues appending.  Resumed results are therefore bit-identical
// to an uninterrupted run, including the exported metrics JSON.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rfid::ckpt {

/// The FNV-1a starting value used here.  It is not the published 64-bit
/// offset basis (14695981039346656037, one digit longer), but it stays:
/// every journal header and snapshot carries hashes made with it, and a
/// new basis would refuse to resume all of them.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

/// FNV-1a over bytes; used for the deployment / fault-plan identity hashes
/// recorded in the journal header.  Chaining over chunks, fnv1a(b, fnv1a(a)),
/// equals hashing their concatenation.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnv1aBasis);

/// CRC32 (IEEE, reflected) — the per-record checksum.
std::uint32_t crc32(std::string_view bytes);

/// Run identity, written as the first journal record and re-derived at
/// resume time; any mismatch fails closed (the journal belongs to a
/// different deployment / algorithm / fault plan and replaying it would
/// silently produce garbage).
struct JournalHeader {
  int version = 1;
  std::string algo;                   // OneShotScheduler::name()
  std::uint64_t seed = 0;             // scenario / scheduler seed
  std::uint64_t deployment_hash = 0;  // fnv1a over the CSV serialization
  std::uint64_t fault_hash = 0;       // fault::FaultPlan::fingerprint()

  bool operator==(const JournalHeader&) const = default;
};

/// One committed MCS slot.
struct SlotEntry {
  int slot = 0;             // q, the slot index (dense from 0)
  std::vector<int> active;  // the set the scheduler proposed
  std::vector<int> served;  // tags actually marked read this slot
  // Fault-referee verdicts (all zero on clean runs).
  int crashed = 0;
  int replanned = 0;
  int missed = 0;
  int ideal = 0;   // no-fault counterfactual of the proposal
  bool faulty = false;
  bool lost = false;
  int epoch = 0;            // fault::FaultPlan::epochAt(slot)
  std::uint64_t fp = 0;     // scheduler state fingerprint / RNG cursor

  bool operator==(const SlotEntry&) const = default;
};

/// Atomic snapshot of the read-state bitmap after `slot` committed slots.
struct Snapshot {
  int slot = 0;
  std::vector<char> read;  // one byte per tag, 0 / 1
};

/// A validated journal: the header, every committed slot, and whether a
/// torn tail record was dropped.  `valid_bytes` is the byte length of the
/// valid prefix — openAppend() truncates the file there before appending.
struct JournalData {
  JournalHeader header;
  std::vector<SlotEntry> slots;
  bool dropped_torn_tail = false;
  std::size_t valid_bytes = 0;
  /// Loaded from `<path>.snap` when present and valid (mcs_ckpt.cpp).
  std::optional<Snapshot> snapshot;
};

// ---- record codecs (exposed for tests / tooling) ----

std::string encodeHeader(const JournalHeader& h);
std::string encodeSlot(const SlotEntry& e);
/// `line` excludes the trailing newline.  Returns false on any deviation
/// from the canonical serialization, including a CRC mismatch.
bool decodeHeader(std::string_view line, JournalHeader* out);
bool decodeSlot(std::string_view line, SlotEntry* out);

std::string encodeSnapshot(const Snapshot& s, std::uint64_t deployment_hash);
bool decodeSnapshot(std::string_view text, Snapshot* out,
                    std::uint64_t* deployment_hash);

/// Parses and validates a journal file.  Fails closed (nullopt + *err) on:
/// unreadable file, missing or corrupt header, any interior record failing
/// its CRC or codec, or a slot-sequence gap.  A single invalid *final*
/// record is treated as a torn tail and dropped.
std::optional<JournalData> readJournal(const std::string& path,
                                       std::string* err = nullptr);

/// Append-only journal writer.  Not thread-safe; one writer per run.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates a fresh journal and writes + fsyncs the header.  Fails closed
  /// if `path` already exists (refuse to clobber another run's journal —
  /// callers resume it or remove it explicitly).
  bool create(const std::string& path, const JournalHeader& h,
              std::string* err = nullptr);

  /// Opens a previously validated journal for appending, truncating the
  /// torn tail (everything past `valid_bytes`) first.
  bool openAppend(const std::string& path, const JournalHeader& h,
                  std::size_t valid_bytes, std::string* err = nullptr);

  /// Appends one committed slot (a single write(2)).
  bool appendSlot(const SlotEntry& e);

  /// True when a snapshot is due after `committed` slots.
  bool snapshotDue(int committed) const {
    return snapshot_every > 0 && committed > 0 &&
           committed % snapshot_every == 0;
  }
  /// Atomically replaces `<path>.snap`.
  bool writeSnapshot(const Snapshot& s);

  const std::string& path() const { return path_; }
  std::string snapshotPath() const { return path_ + ".snap"; }
  bool ok() const { return fd_ >= 0; }
  void close();

  /// Commits between snapshots (0 disables snapshots).
  int snapshot_every = 64;

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t deployment_hash_ = 0;
};

}  // namespace rfid::ckpt
