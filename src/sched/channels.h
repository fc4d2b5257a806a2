// channels.h — multi-channel reader scheduling (paper §VII discussion).
//
// The related-work section discusses two channel-based escapes from RTc:
// the EPCglobal Gen-2 *dense reading mode* (tag responses on different
// spectral channels than readers) and the k-coloring heuristic of [13]
// (k = number of available channels).  With C channels, a slot activates a
// set of readers *plus a channel assignment* (OneShotResult::channel);
// reader–tag collisions only occur between readers sharing a channel, while
// reader–reader collisions at tags persist across channels (a passive tag
// is frequency-dumb on the downlink it backscatters).
//
// Channel-feasibility of (X, channel) therefore means: same-channel pairs
// must be independent — i.e. X's interference subgraph is properly colored
// by the assignment.  C = 1 reduces exactly to Definition 2.
#pragma once

#include <span>
#include <vector>

#include "core/system.h"
#include "sched/scheduler.h"

namespace rfid::sched {

/// True iff every same-channel pair in (readers, channel) is independent.
bool isChannelFeasible(const core::System& sys, std::span<const int> readers,
                       std::span<const int> channel);

/// Definition-1 semantics generalized to channels: a reader is an RTc
/// victim only if it sits inside the interference disk of another active
/// reader *on its own channel*; a tag is lost to RRc when ≥2 active readers
/// (any channels) cover it.  Readers in `jamming` (loud-failed transmitters,
/// disjoint from `readers`) are channel-blind: they add RRc multiplicity
/// and victimize every reader inside their interference disk, but read
/// nothing.  Only unread tags are reported, ascending.  With `channel`
/// empty this is exactly System::wellCoveredTags(readers, jamming), the
/// paper's single-channel referee.
std::vector<int> wellCoveredTagsChanneled(const core::System& sys,
                                          std::span<const int> readers,
                                          std::span<const int> channel,
                                          std::span<const int> jamming = {});

struct ChannelOptions {
  int num_channels = 2;
};

/// Greedy channel-aware scheduler: repeatedly adds the reader with the
/// largest positive marginal weight that still fits on *some* channel
/// (first-fit).  With C = 1 this is exactly the GHC baseline; more channels
/// admit interfering readers on separate frequencies, so per-slot weight is
/// non-decreasing in C until RRc becomes the binding constraint.  The
/// result carries the channel assignment and its channeled weight.
class MultiChannelScheduler final : public OneShotScheduler {
 public:
  explicit MultiChannelScheduler(ChannelOptions opt = {});

  std::string name() const override;
  OneShotResult schedule(const core::System& sys) override;

 private:
  ChannelOptions opt_;
};

}  // namespace rfid::sched
