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
                                          std::span<const int> channel,
                                          std::span<const int> jamming) {
  if (channel.empty()) return sys.wellCoveredTags(readers, jamming);
  assert(readers.size() == channel.size());
  // Reader u sits inside radiator j's interference disk.
  const auto inside = [&sys](int u, int j) {
    const core::Reader& rj = sys.reader(j);
    return geom::dist2(sys.reader(u).pos, rj.pos) <=
           rj.interference_radius * rj.interference_radius;
  };
  // RTc victims: inside a same-channel active reader's interference disk,
  // or inside any jamming reader's.
  std::vector<char> victim(readers.size(), 0);
  for (std::size_t i = 0; i < readers.size(); ++i) {
    for (std::size_t j = 0; j < readers.size() && victim[i] == 0; ++j) {
      if (i == j || channel[i] != channel[j]) continue;
      if (inside(readers[i], readers[j])) victim[i] = 1;
    }
    for (std::size_t j = 0; j < jamming.size() && victim[i] == 0; ++j) {
      if (inside(readers[i], jamming[j])) victim[i] = 1;
    }
  }
  // Coverage multiplicity across ALL radiators (RRc is channel-blind).
  std::vector<int> count(static_cast<std::size_t>(sys.numTags()), 0);
  std::vector<int> cov;
  const auto tally = [&](int v) {
    sys.coveredTags(v, cov);
    for (const int t : cov) ++count[static_cast<std::size_t>(t)];
  };
  for (const int v : readers) tally(v);
  for (const int v : jamming) tally(v);
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

OneShotResult MultiChannelScheduler::schedule(const core::System& sys) {
  const int n = sys.numReaders();
  core::WeightEvaluator eval(sys);
  std::vector<int> chosen;
  std::vector<int> chan;
  std::int64_t peeks = 0;  // weight evaluations, billed like GHC's scan

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
      ++peeks;
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

  OneShotResult res;
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
  recordScheduleMetrics(peeks, static_cast<std::int64_t>(chosen.size()));
  {
    obs::CostBill b;
    b.weight_evals = peeks + eval.ops();
    b.csr_rows = b.weight_evals;
    chargeCost("mc.selection", b);
  }
  return res;
}

}  // namespace rfid::sched
