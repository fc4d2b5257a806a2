#include "distributed/kcoloring.h"

#include <algorithm>
#include <cassert>

namespace rfid::dist {

KColoringScheduler::KColoringScheduler(const core::System& sys, int channels,
                                       std::uint64_t seed)
    : channels_(channels) {
  assert(channels >= 1);
  ColorwaveOptions opt;
  // Pin the palette to the channel count: [13] has exactly k channels to
  // hand out, so Colorwave's frame adaptation is disabled.
  opt.initial_max_colors = channels;
  opt.min_colors = channels;
  opt.max_colors_cap = channels;
  opt.settle_rounds = 1500;  // pinned palettes converge slower when k is tight
  protocol_ = std::make_unique<ColorwaveScheduler>(sys, seed, opt);
}

std::string KColoringScheduler::name() const {
  return "KCol" + std::to_string(channels_);
}

sched::OneShotResult KColoringScheduler::schedule(const core::System& sys) {
  const ColorwaveScheduler::Stats before = protocol_->stats();
  protocol_->runProtocol(settled_ ? 10 : 1500);
  settled_ = true;

  const std::vector<int> colors = protocol_->colors();
  sched::OneShotResult res;
  for (int v = 0; v < sys.numReaders(); ++v) {
    res.readers.push_back(v);
    res.channel.push_back(colors[static_cast<std::size_t>(v)]);
  }
  res.weight =
      static_cast<int>(sys.wellCoveredTags(res.readers, {}, res.channel).size());
  // Billed as Colorwave bills itself: one referee evaluation, the channels
  // in use as the search breadth, and the protocol's traffic.
  std::vector<int> used = colors;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  recordScheduleMetrics(1, static_cast<std::int64_t>(used.size()));
  {
    const ColorwaveScheduler::Stats& after = protocol_->stats();
    obs::CostBill b;
    b.weight_evals = 1;
    b.net_messages = after.messages - before.messages;
    b.net_rounds = after.protocol_rounds - before.protocol_rounds;
    chargeCost("kcol.protocol", b);
  }
  return res;
}

}  // namespace rfid::dist
