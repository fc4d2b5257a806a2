// slot_timing.h — macro-slot duration accounting (paper §III).
//
// The paper sizes the macro time-slot so every active reader can serve at
// least one well-covered tag, then measures schedules in slots.  This
// adapter descends one level: it replays a covering schedule and charges
// each slot the micro-slots its *slowest* active reader needs to arbitrate
// its well-covered tags (readers run in parallel within a slot; TTc
// arbitration is per-reader).  That converts "number of slots" into the
// physical air-time the installation would actually spend — the extension
// experiment bench/protocol_slots reports both.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/system.h"
#include "protocol/gen2.h"
#include "sched/mcs.h"
#include "workload/rng.h"

namespace rfid::protocol {

// ---------------------------------------------------------------------------
// Link-layer co-simulation (ROADMAP 4): replay a covering schedule under a
// selectable link model and convert it into physical air-time.
//
// `kUnit` is the paper's unit-cost slot (one micro-slot per macro-slot) and
// the CLI default — it must not perturb anything.  `kAloha`/`kTreeWalk`
// charge each macro-slot the framed-ALOHA slots / tree-walking probes of its
// slowest reader over the fresh tags it serves (micro-slot currency
// converted at `t_micro_us`).  `kGen2` descends further: each macro-slot's
// duration is the max over active readers of their Gen2 arbitration cost on
// their *physical* well-covered population — including tags the schedule
// already read, because whether those stale repliers cost air-time is
// exactly what sessions decide.  Session flag state carries across
// macro-slots in one `Gen2SessionState`, so a tag inventoried under S2/S3
// stays silent (a "session skip") until its flag decays.
//
// The Gen2 slot step (Gen2LinkTimer) self-checks three invariants and
// reports them through `check_ok`/`check_detail` (the CLI escalates to
// exit 5 under `--check`):
//   1. every tag the schedule credits to a slot is identified in that slot,
//      and the per-slot fresh-read count matches the recorded SlotRecord;
//   2. no round acknowledges the same tag twice;
//   3. a tag is never re-identified within its session persistence window
//      (vacuous for S0/S1 whose windows are 0/1 macro-slots).
// ---------------------------------------------------------------------------

enum class Link { kUnit, kAloha, kTreeWalk, kGen2 };

const char* linkName(Link link);
/// Parses "unit" / "aloha" / "tree" / "gen2"; returns false on anything else.
bool parseLink(std::string_view text, Link& out);

struct LinkOptions {
  Link link = Link::kUnit;
  /// Gen2 model parameters (metrics/trace members are ignored; pass the
  /// registry below so the aggregate is flushed once per replay).
  Gen2Options gen2;
  /// Micro-slot → microseconds conversion for the aloha/tree links.
  std::int64_t t_micro_us = 250;
  /// Optional: receives the `protocol.gen2.*` counter family (gen2 link).
  obs::MetricsRegistry* metrics = nullptr;
};

struct LinkTimingResult {
  Link link = Link::kUnit;
  int macro_slots = 0;
  /// Σ over slots of max-over-active-readers cost / air-time (readers run
  /// in parallel within a macro-slot).
  std::int64_t micro_slots = 0;
  std::int64_t air_us = 0;
  /// Σ over slots and readers (serial energy/air-time).
  std::int64_t micro_slots_serial = 0;
  std::int64_t air_us_serial = 0;
  /// Fresh tags read (matches the schedule's tags_read on a clean replay).
  int tags_read = 0;
  /// Gen2 only: totals across all rounds.
  std::int64_t frames = 0;
  std::int64_t identified = 0;      // incl. stale re-identifications
  std::int64_t session_skips = 0;   // replies suppressed by session flags
  std::int64_t stale_repliers = 0;  // already-read tags that replied
  /// Rounds whose internal self-check saw a tag acked twice (always 0 on a
  /// healthy build — the zero-stays-zero bench gate pins it).
  std::int64_t double_identifications = 0;
  bool check_ok = true;
  std::string check_detail;
};

/// The stream of reader `reader`'s framed-ALOHA round in macro-slot `slot`
/// of a replay seeded by `link`: split by slot, then by reader, as the Gen2
/// replay keys its rounds, so no two (slot, reader) pairs share a stream.
workload::Rng alohaReaderRng(const workload::Rng& link, int slot, int reader);

/// Replays `schedule` under `opt.link`.  Resets the read-state of `sys` and
/// leaves it fully re-marked (pass a scratch copy if the caller still needs
/// its read-state).  Deterministic in (schedule, deployment, rng seed);
/// independent of scheduler thread count.  A slot that carries channels
/// (SlotRecord::channel) is refereed in the channel model.
/// Fault-injected runs record *proposed* active sets, which a replay cannot
/// re-execute faithfully — callers gate on a fault-free run (the CLI rejects
/// `--link` + `--fault-*`).
LinkTimingResult timeScheduleLink(core::System& sys,
                                  const sched::McsResult& schedule,
                                  const LinkOptions& opt, workload::Rng rng);

/// The Gen2 slot step, shared by the schedule replay (timeScheduleLink with
/// Link::kGen2) and the streaming driver.  Each onSlot groups a macro-slot's
/// population by its unique active coverer, runs one inventory round per
/// reader with an Rng keyed by (slot, reader), and applies the three
/// self-checks above; session flags carry across slots, and totals and the
/// first failed check accumulate in result().  The replay feeds each slot's
/// *physical* population and the fresh reads its SlotRecord credits.  A stream
/// wires onSlot to StreamingOptions::on_commit and feeds each busy slot's
/// *served* tags and their count, the honest online model: the physical
/// population of a churning slot cannot be replayed after the fact.  Every
/// served tag is unread and is served once, so a stream never sees a stale
/// replier.  The timer never mutates the system, and resume replays re-feed
/// it identically, so totals match an uninterrupted run.  The metrics and
/// trace members of `opt` are ignored.
class Gen2LinkTimer {
 public:
  Gen2LinkTimer(const core::System& sys, const Gen2Options& opt,
                workload::Rng rng);
  /// Arbitrates macro-slot `slot`, whose readers `active` radiate over
  /// `population`; `credited` is the number of fresh reads the driver
  /// credits to the slot.
  void onSlot(int slot, std::span<const int> active,
              std::span<const int> population, int credited);
  const LinkTimingResult& result() const { return res_; }
  /// True once a round has identified tag `t`.
  bool hasRead(int t) const;
  /// Flushes the protocol.gen2.* counter aggregate (call once, post-run).
  void flushMetrics(obs::MetricsRegistry* metrics) const;

 private:
  /// Records `why` as check_detail unless an earlier check failed.
  void fail(const std::string& why);

  const core::System* sys_;
  Gen2Options opt_;
  workload::Rng rng_;
  int persist_ = 0;
  bool persistence_check_ = false;
  Gen2SessionState session_;
  std::vector<char> read_;       // identified by some round, per tag
  std::vector<int> last_ident_;  // slot of the tag's last identification
  std::vector<int> owner_pos_;
  std::vector<std::vector<int>> pops_;
  LinkTimingResult res_;
};

}  // namespace rfid::protocol
