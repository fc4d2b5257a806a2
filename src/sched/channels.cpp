#include "sched/channels.h"

#include <algorithm>
#include <cassert>

#include "core/weight.h"

namespace rfid::sched {

bool isChannelFeasible(const core::System& sys, std::span<const int> readers,
                       std::span<const int> channel) {
  assert(readers.size() == channel.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    for (std::size_t j = i + 1; j < readers.size(); ++j) {
      if (readers[i] == readers[j]) return false;
      if (channel[i] == channel[j] && !sys.independent(readers[i], readers[j])) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> wellCoveredTagsChanneled(const core::System& sys,
                                          std::span<const int> readers,
                                          std::span<const int> channel) {
  assert(readers.size() == channel.size());
  // RTc victims: inside a same-channel active reader's interference disk.
  std::vector<char> victim(readers.size(), 0);
  for (std::size_t i = 0; i < readers.size(); ++i) {
    for (std::size_t j = 0; j < readers.size(); ++j) {
      if (i == j || channel[i] != channel[j]) continue;
      const core::Reader& a = sys.reader(readers[i]);
      const core::Reader& b = sys.reader(readers[j]);
      const double rj = b.interference_radius;
      if (geom::dist2(a.pos, b.pos) <= rj * rj) {
        victim[i] = 1;
        break;
      }
    }
  }
  // Coverage multiplicity across ALL active readers (RRc is channel-blind).
  std::vector<int> count(static_cast<std::size_t>(sys.numTags()), 0);
  std::vector<int> cov;
  for (const int v : readers) {
    sys.coveredTags(v, cov);
    for (const int t : cov) ++count[static_cast<std::size_t>(t)];
  }
  std::vector<int> served;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (victim[i] != 0) continue;
    sys.coveredTags(readers[i], cov);
    for (const int t : cov) {
      if (count[static_cast<std::size_t>(t)] == 1 && !sys.isRead(t)) served.push_back(t);
    }
  }
  std::sort(served.begin(), served.end());
  return served;
}

MultiChannelScheduler::MultiChannelScheduler(ChannelOptions opt) : opt_(opt) {
  assert(opt_.num_channels >= 1);
}

std::string MultiChannelScheduler::name() const {
  return "MC" + std::to_string(opt_.num_channels);
}

ChanneledResult MultiChannelScheduler::scheduleChanneled(
    const core::System& sys) {
  const int n = sys.numReaders();
  core::WeightEvaluator eval(sys);
  std::vector<int> chosen;
  std::vector<int> chan;

  while (true) {
    // Cancellation checkpoint: one poll per greedy addition; the partial
    // channel assignment is feasible after every completed addition.
    if (cancelled()) break;
    int best = -1;
    int best_delta = 0;
    int best_channel = -1;
    for (int v = 0; v < n; ++v) {
      if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) continue;
      // First-fit channel: one with no conflicting co-channel member.
      int fit = -1;
      for (int c = 0; c < opt_.num_channels && fit < 0; ++c) {
        bool ok = true;
        for (std::size_t i = 0; i < chosen.size(); ++i) {
          if (chan[i] == c && !sys.independent(chosen[i], v)) {
            ok = false;
            break;
          }
        }
        if (ok) fit = c;
      }
      if (fit < 0) continue;
      const int delta = eval.peekDelta(v);
      if (delta > best_delta) {
        best_delta = delta;
        best = v;
        best_channel = fit;
      }
    }
    if (best < 0) break;
    eval.push(best);
    chosen.push_back(best);
    chan.push_back(best_channel);
  }

  ChanneledResult res;
  // Sort by reader index, carrying channels along.
  std::vector<std::size_t> order(chosen.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&chosen](std::size_t a, std::size_t b) {
    return chosen[a] < chosen[b];
  });
  for (const std::size_t i : order) {
    res.readers.push_back(chosen[i]);
    res.channel.push_back(chan[i]);
  }
  res.weight = static_cast<int>(
      wellCoveredTagsChanneled(sys, res.readers, res.channel).size());
  return res;
}

OneShotResult MultiChannelScheduler::schedule(const core::System& sys) {
  const ChanneledResult res = scheduleChanneled(sys);
  return {res.readers, res.weight};
}

ChanneledMcsResult runChanneledCoveringSchedule(core::System& sys,
                                                ChanneledScheduler& sched,
                                                int max_slots) {
  ChanneledMcsResult res;
  int stall = 0;
  while (sys.unreadCoverableCount() > 0 && res.slots < max_slots) {
    const ChanneledResult one = sched.scheduleChanneled(sys);
    const std::vector<int> served =
        wellCoveredTagsChanneled(sys, one.readers, one.channel);
    sys.markRead(served);
    ++res.slots;
    res.tags_read += static_cast<int>(served.size());
    if (served.empty()) {
      if (++stall >= 500) break;
    } else {
      stall = 0;
    }
  }
  res.completed = sys.unreadCoverableCount() == 0;
  return res;
}

}  // namespace rfid::sched
