// hill_climbing.h — Greedy Hill-Climbing (GHC, paper §VI) and its
// multi-channel form (§VII).
//
// "At each step, we select a reader to add to the current active reader
//  set, in order to maximize the incremental weight together with other
//  active readers at this time-slot.  Then we keep adding the reader to the
//  active set one by one recursively until the weight starts to decrease
//  (the incremental weight becomes negative) due to various collisions."
//
// Additions are restricted to readers independent of the current set: an
// interfering addition creates RTc and can only lose weight, so GHC would
// never take it anyway; excluding it keeps the produced set feasible.
//
// The related-work section's channel escapes from RTc (the Gen2 dense
// reading mode, the k-coloring heuristic of [13]) run the same climb with
// C channels: a reader stays a candidate while some channel holds no member
// it conflicts with, and a pick takes the first such channel.  RTc strikes
// only within a channel while RRc stays channel-blind
// (core::System::wellCoveredTags), so the evaluator's exactly-one count is
// the channeled weight, and GHC is the climb with one channel.
//
// The per-step argmax runs through core::LazyGreedyQueue seeded from a
// cross-slot core::StandaloneWeightCache — exact argmax, lowest-index ties,
// stop at a delta <= 0 — without the O(n·coverage) rescan every step
// (docs/performance.md).  GHC constructed with `lazy_selection = false`
// runs the original scan; the multi-channel scan is
// ref::ScanMultiChannelScheduler in tests/reference_paths.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/weight.h"
#include "sched/scheduler.h"

namespace rfid::sched {

/// The lazy greedy climb GHC and MC share.  The caches persist across the
/// slots of one deployment.
class ClimbingScheduler : public OneShotScheduler {
 protected:
  struct Climb {
    OneShotResult result;     // readers ascending, channel aligned
    std::int64_t steps = 0;   // queue picks tried, counted under an observer
    std::int64_t work = 0;    // the queue's work units
  };

  /// Climbs one slot over `channels` channels, billing the cache refresh to
  /// `sync_phase` and the selection to `selection_phase`.
  Climb climb(const core::System& sys, int channels,
              std::string_view sync_phase, std::string_view selection_phase);

 private:
  core::StandaloneWeightCache standalone_;
  core::LazyGreedyQueue queue_;
  std::vector<int> all_;        // candidate list 0..n-1, reused across slots
  std::vector<char> open_;      // eligible: unchosen, some channel free
  std::vector<char> blocked_;   // [v * C + c]: a member on c conflicts with v
};

class HillClimbingScheduler final : public ClimbingScheduler {
 public:
  explicit HillClimbingScheduler(bool lazy_selection = true)
      : lazy_(lazy_selection) {}

  std::string name() const override { return "GHC"; }
  /// The one-channel climb; the result carries no channels.
  OneShotResult schedule(const core::System& sys) override;

 private:
  OneShotResult scheduleReference(const core::System& sys);

  bool lazy_;
};

struct ChannelOptions {
  int num_channels = 2;
};

/// The climb with C channels.  More channels admit interfering readers on
/// separate frequencies, so per-slot weight is non-decreasing in C until
/// RRc becomes the binding constraint.  Every result carries its channel
/// assignment, C = 1 included, and the System referee's weight for it.
class MultiChannelScheduler final : public ClimbingScheduler {
 public:
  /// Throws std::invalid_argument when opt.num_channels < 1.
  explicit MultiChannelScheduler(ChannelOptions opt = {});

  std::string name() const override;
  OneShotResult schedule(const core::System& sys) override;

 private:
  ChannelOptions opt_;
};

}  // namespace rfid::sched
