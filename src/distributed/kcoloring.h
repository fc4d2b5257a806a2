// kcoloring.h — the k-coloring channel-assignment baseline ([13], §VII).
//
// "[13] suggests k-coloring of the interference graph where k is the
//  number of available channels.  If the graph is not k-colorable under
//  their suggested heuristic, then they will remove certain edges and
//  nodes from the interference graph.  This work aims at avoiding the
//  reader-tag collisions exclusively."
//
// Rendered here as a channeled one-shot scheduler: the Colorwave protocol
// runs with maxColors *pinned* to the channel count (no adaptation),
// coloring the sensing graph; every slot activates ALL readers
// simultaneously, each on its color's channel.  Readers the heuristic failed to separate — the
// "removed" nodes of [13] — are exactly the same-channel conflicting pairs,
// and the channel-aware referee charges them as RTc victims.  RRc at tags
// is untouched by channels, which is why the paper's weight-aware
// algorithms still win.
#pragma once

#include <cstdint>
#include <memory>

#include "distributed/colorwave.h"
#include "sched/scheduler.h"

namespace rfid::dist {

class KColoringScheduler final : public sched::OneShotScheduler {
 public:
  /// `channels` = k; the conflict graph is the sensing graph of `sys`.
  KColoringScheduler(const core::System& sys, int channels,
                     std::uint64_t seed);

  std::string name() const override;
  sched::OneShotResult schedule(const core::System& sys) override;

  /// True iff the pinned-k coloring is currently proper (k-colorable and
  /// converged); improper residue is what [13] "removes".
  bool converged() const { return protocol_->converged(); }

 private:
  int channels_;
  std::unique_ptr<ColorwaveScheduler> protocol_;
  bool settled_ = false;
};

}  // namespace rfid::dist
