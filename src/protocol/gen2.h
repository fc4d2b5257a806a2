// gen2.h — EPC Class-1 Generation-2 inventory-round simulation (ROADMAP 4).
//
// The paper's macro time-slots assume every active reader can arbitrate its
// well-covered tags; `aloha.h` models that with idealized Vogt framed ALOHA.
// Real readers run EPC Gen2: a Query opens a frame of 2^Q micro-slots, every
// participating tag draws a slot counter, singleton slots are acknowledged,
// and the reader steers Q with the Q-algorithm (Qfp ± C per slot, Q =
// round(Qfp), QueryAdjust re-opens the frame when Q changes).  Tags carry a
// per-session inventoried flag (A/B) that an ack flips away from the round's
// target; in sessions S2/S3 the flag persists across macro-slots, so a tag
// inventoried once stays silent — and costs no air-time — until the flag
// decays.  This module simulates one inventory round deterministically from
// an explicit Rng, with two Q policies (the standard Q-algorithm and an
// AFSA-style frame-sized estimator), S0–S3 session persistence, A/B target
// selection, and a multi-packet-reception (MPR) mode where up to k colliding
// replies resolve in one micro-slot (Pudasaini-style capture receivers).
//
// Deviations from the EPC spec are deliberate and documented in
// docs/protocol.md: slots are occupancy-buckets rather than bit-level
// signalling, QueryAdjust aborts the current frame and redraws (QueryRep
// bookkeeping is folded into the per-slot costs), persistence is measured in
// macro-slots rather than seconds, and a round against an all-suppressed
// population costs nothing (the empty Query is not charged).
//
// Air-time is accounted in integer microseconds (stylized per-slot costs,
// configurable) so the seconds-denominated objective is bit-reproducible
// across platforms and thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/rng.h"

namespace rfid::protocol {

/// How the reader steers Q between frames.
enum class Gen2Policy {
  /// EPC Q-algorithm: Qfp += C on collision, -= C on empty, Q = round(Qfp);
  /// a Q change mid-frame issues QueryAdjust (unresolved tags redraw).
  kQAlgorithm,
  /// AFSA-style: after each frame, re-size to the improved frame-size
  /// estimate (backlog ≈ 2.39 tags per collision slot), Q = ceil(log2).
  kAfsa,
};

/// EPC sessions differ only in inventoried-flag persistence (see
/// `persistenceSlots`): S0 forgets every macro-slot, S1 holds one slot,
/// S2/S3 hold `Gen2Options::persistence` slots.
enum class Gen2Session { kS0, kS1, kS2, kS3 };

/// Inventory target: a round reads tags whose session flag matches.  An ack
/// flips the flag away from the target (A→B under target A, B→A under B).
enum class Gen2Target { kA, kB };

struct Gen2Options {
  /// Initial Q (frame size 2^Q), clamped to [0, 15].
  int q0 = 4;
  /// Q-algorithm step; the spec suggests C in [0.1, 0.5].
  double c = 0.3;
  Gen2Policy policy = Gen2Policy::kQAlgorithm;
  Gen2Session session = Gen2Session::kS2;
  /// Multi-packet reception: a micro-slot with at most `mpr_k` replies
  /// resolves all of them.  <= 1 is a plain single-reply Gen2 receiver.
  int mpr_k = 1;
  /// S2/S3 inventoried-flag persistence, in macro-slots.
  int persistence = 16;
  /// Alternate the round target A/B by macro-slot parity (dual-target
  /// inventorying).  Exercised by the round-level API and tests; the
  /// schedule co-simulation in slot_timing pins target A (see
  /// docs/protocol.md).
  bool alternate_target = false;
  /// Safety caps making every round finite regardless of configuration.
  std::int64_t max_micro_slots = std::int64_t{1} << 20;
  int max_frames = 4096;
  /// Stylized per-event air times, integer microseconds (docs/protocol.md).
  std::int64_t t_query_us = 400;
  std::int64_t t_empty_us = 150;
  std::int64_t t_collision_us = 600;
  std::int64_t t_success_us = 1200;
  /// Observability (optional).  With `metrics` the round adds the
  /// `protocol.gen2.*` counter family; with `trace` every frame emits a
  /// kFrame event.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Macro-slots an inventoried flag survives after being set, per session.
int persistenceSlots(const Gen2Options& opt);

/// Round target for a macro-slot under `opt` (A unless alternating).
Gen2Target roundTarget(const Gen2Options& opt, int macro_slot);

/// Per-tag session flag state carried across macro-slots.  The co-simulator
/// owns one instance per run; round-level tests may drive it directly.
class Gen2SessionState {
 public:
  /// Grows to cover tag ids [0, num_tags); new tags start at flag A.
  void ensure(std::size_t num_tags);
  /// Applies persistence decay at the start of `macro_slot`: B flags set
  /// more than `persistenceSlots(opt)` slots ago revert to A.
  void startSlot(int macro_slot, const Gen2Options& opt);
  bool flagB(int t) const { return flag_b_[static_cast<std::size_t>(t)] != 0; }
  /// Ack under `target`: flips the flag away from the target and stamps the
  /// set-time for decay.
  void onAck(int t, int macro_slot, Gen2Target target);
  std::size_t size() const { return flag_b_.size(); }

 private:
  std::vector<char> flag_b_;  // 0 = A, 1 = B
  std::vector<int> stamp_;    // macro-slot when the flag was last set to B
};

struct Gen2RoundResult {
  /// Tags acknowledged this round, in identification order.
  std::vector<int> identified;
  /// Population members whose session flag suppressed their reply.
  int session_skips = 0;
  int frames = 0;
  /// Q re-sizes (mid-frame QueryAdjust aborts, or AFSA frame re-sizes).
  int adjusts = 0;
  std::int64_t micro_slots = 0;
  std::int64_t singles = 0;
  std::int64_t collisions = 0;
  std::int64_t empties = 0;
  /// Success slots that resolved more than one reply (MPR), and the tags
  /// resolved in them.
  std::int64_t mpr_slots = 0;
  std::int64_t mpr_resolved = 0;
  std::int64_t air_us = 0;
  /// False iff a safety cap fired with repliers still unresolved.
  bool completed = false;
  /// Internal self-check: a tag was acknowledged twice in this round.
  /// Always false unless the simulator is buggy or the population lists a
  /// tag twice — the mutation harness and the `--check` oracle key on it.
  bool double_identified = false;
};

/// Runs one inventory round: every tag in `population` whose session flag
/// matches the target participates; the round ends when all participants are
/// identified or a safety cap fires.  Flags in `session` are updated via
/// onAck; the caller applies `startSlot` decay once per macro-slot (not per
/// round).  Deterministic in (population order, session state, rng seed).
Gen2RoundResult runGen2Round(std::span<const int> population,
                             Gen2SessionState& session, int macro_slot,
                             Gen2Target target, workload::Rng& rng,
                             const Gen2Options& opt = {});

}  // namespace rfid::protocol
