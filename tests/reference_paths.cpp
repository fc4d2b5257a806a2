#include "reference_paths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>
#include <unordered_map>

#include "core/weight.h"
#include "graph/traversal.h"
#include "sched/exact.h"

namespace rfid::test::ref {

namespace {

/// Definition 1 by the coverers walk: on_tag(t) once per well-covered tag,
/// ascending.
template <typename OnTag>
void forEachWellCovered(const core::System& sys, std::span<const int> X,
                        std::span<const int> jamming, OnTag&& on_tag) {
  const auto n = static_cast<std::size_t>(sys.numReaders());
  std::vector<char> role(n, 0);  // 1 = member of X, 2 = jamming radiator
  std::vector<char> victim(n, 0);
  // Pass 1: RTc victims — v_i inside another radiator v_j's interference
  // disk reads nothing (only R_j matters).  Jamming readers radiate too.
  for (const int vi : X) {
    for (const std::span<const int> radiators : {X, jamming}) {
      for (const int vj : radiators) {
        const double rj = sys.reader(vj).interference_radius;
        if (vi != vj &&
            geom::dist2(sys.reader(vi).pos, sys.reader(vj).pos) <= rj * rj) {
          victim[static_cast<std::size_t>(vi)] = 1;
        }
      }
    }
  }
  for (const int v : X) role[static_cast<std::size_t>(v)] = 1;
  for (const int v : jamming) role[static_cast<std::size_t>(v)] = 2;
  // Pass 2: well-covered iff unread, covered by exactly one radiator (RRc
  // counts victims too), and that radiator is a non-victim member of X.
  for (int t = 0; t < sys.numTags(); ++t) {
    if (sys.isRead(t)) continue;
    int count = 0;
    int only = -1;
    for (const int u : sys.coverers(t)) {
      if (role[static_cast<std::size_t>(u)] != 0) {
        ++count;
        only = u;
      }
    }
    if (count == 1 && role[static_cast<std::size_t>(only)] == 1 &&
        victim[static_cast<std::size_t>(only)] == 0) {
      on_tag(t);
    }
  }
}

int chanOf(std::span<const int> channel, std::size_t i) {
  return channel.empty() ? 0 : channel[i];
}

}  // namespace

check::GeometricCoverage geometricCoverage(const core::System& sys) {
  const int n = sys.numReaders();
  const int m = sys.numTags();
  const auto covers = [&sys](int v, int t) {
    const core::Reader& r = sys.reader(v);
    return !sys.departed(t) &&
           geom::dist2(r.pos, sys.tag(t).pos) <=
               r.interrogation_radius * r.interrogation_radius;
  };
  // Each direction by its own full scan, so neither is derived from the
  // other.
  check::GeometricCoverage g;
  g.covr_off.push_back(0);
  for (int t = 0; t < m; ++t) {
    for (int v = 0; v < n; ++v) {
      if (covers(v, t)) g.covr_idx.push_back(v);
    }
    g.covr_off.push_back(static_cast<int>(g.covr_idx.size()));
  }
  g.cov_off.push_back(0);
  for (int v = 0; v < n; ++v) {
    for (int t = 0; t < m; ++t) {
      if (covers(v, t)) g.cov_idx.push_back(t);
    }
    g.cov_off.push_back(static_cast<int>(g.cov_idx.size()));
  }
  return g;
}

std::vector<char> geometricVictims(const core::System& sys,
                                   std::span<const int> X,
                                   std::span<const int> channel,
                                   std::span<const int> jamming) {
  std::vector<char> victim(X.size(), 0);
  const auto holds = [&sys](int j, int u) {
    const double rj = sys.reader(j).interference_radius;
    return geom::dist2(sys.reader(u).pos, sys.reader(j).pos) <= rj * rj;
  };
  for (std::size_t i = 0; i < X.size(); ++i) {
    for (std::size_t j = 0; j < X.size(); ++j) {
      if (j != i && chanOf(channel, j) == chanOf(channel, i) && holds(X[j], X[i])) {
        victim[i] = 1;
      }
    }
    for (const int j : jamming) {
      if (holds(j, X[i])) victim[i] = 1;
    }
  }
  return victim;
}

std::vector<int> geometricServed(const core::System& sys,
                                 std::span<const int> X,
                                 std::span<const int> channel,
                                 std::span<const int> jamming) {
  const std::vector<char> victim = geometricVictims(sys, X, channel, jamming);
  const auto covers = [&sys](int v, const core::Tag& tag) {
    const core::Reader& r = sys.reader(v);
    return geom::dist2(r.pos, tag.pos) <=
           r.interrogation_radius * r.interrogation_radius;
  };
  std::vector<int> served;
  for (int t = 0; t < sys.numTags(); ++t) {
    if (sys.isRead(t)) continue;
    const core::Tag& tag = sys.tag(t);
    int mult = 0;
    std::size_t owner = X.size();  // X index of the covering radiator
    for (std::size_t i = 0; i < X.size(); ++i) {
      if (covers(X[i], tag)) {
        ++mult;
        owner = i;
      }
    }
    for (const int j : jamming) {
      if (covers(j, tag)) {
        ++mult;
        owner = X.size();
      }
    }
    if (mult == 1 && owner < X.size() && victim[owner] == 0) served.push_back(t);
  }
  return served;
}

std::optional<std::pair<int, int>> firstDependentPair(
    const core::System& sys, std::span<const int> X,
    std::span<const int> channel) {
  for (std::size_t i = 0; i < X.size(); ++i) {
    for (std::size_t j = i + 1; j < X.size(); ++j) {
      if (chanOf(channel, i) != chanOf(channel, j)) continue;
      const core::Reader& a = sys.reader(X[i]);
      const core::Reader& b = sys.reader(X[j]);
      const double max_r = std::max(a.interference_radius, b.interference_radius);
      if (!(geom::dist2(a.pos, b.pos) > max_r * max_r)) {
        return std::pair{X[i], X[j]};
      }
    }
  }
  return std::nullopt;
}

int weight(const core::System& sys, std::span<const int> X) {
  int w = 0;
  forEachWellCovered(sys, X, {}, [&w](int) { ++w; });
  return w;
}

std::vector<int> wellCoveredTags(const core::System& sys,
                                 std::span<const int> X,
                                 std::span<const int> jamming) {
  std::vector<int> out;
  forEachWellCovered(sys, X, jamming, [&out](int t) { out.push_back(t); });
  return out;
}

StandaloneCensus standaloneCensus(const core::System& sys) {
  StandaloneCensus c;
  c.weights.assign(static_cast<std::size_t>(sys.numReaders()), 0);
  for (int t = 0; t < sys.numTags(); ++t) {
    const std::span<const int> cov = sys.coverers(t);
    if (sys.isRead(t) || cov.empty()) continue;
    ++c.unread_coverable;
    for (const int u : cov) ++c.weights[static_cast<std::size_t>(u)];
  }
  return c;
}

sched::OneShotResult ScanGrowthScheduler::schedule(const core::System& sys) {
  stats_ = {};
  const int n = sys.numReaders();
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  std::vector<int> X;
  // X's coverage, so picks and local MWFS are scored marginally: readers
  // in graph-independent regions can still cancel tags through RRc.
  core::WeightEvaluator committed(sys);
  while (!cancelled()) {
    // Pick the alive reader with maximum marginal standalone weight.
    int v = -1;
    int vw = 0;
    for (int u = 0; u < n; ++u) {
      if (alive[static_cast<std::size_t>(u)] == 0) continue;
      const int w = committed.peekDelta(u);
      if (w > vw) {
        vw = w;
        v = u;
      }
    }
    if (v < 0) break;  // no alive reader adds value
    ++stats_.picks;

    // Grow Γ_r until inequality (1) fails or the hop cap is hit.
    std::vector<int> gamma = {v};
    int gamma_w = vw;
    int rbar = 0;
    for (int r = 0; r < opt_.hop_cap; ++r) {
      const auto hood = graph::kHopNeighborhoodAlive(*graph_, v, r + 1, alive);
      if (hood.size() <= 1) break;  // the lazy loop's singleton shortcut
      const sched::BnbResult next = sched::maxWeightFeasibleSubset(
          sys, hood, opt_.node_limit, committed, cancelToken());
      stats_.bnb_nodes += next.nodes;
      if (static_cast<double>(next.weight) <
          opt_.rho * static_cast<double>(gamma_w)) {
        break;
      }
      gamma = next.members;
      gamma_w = next.weight;
      rbar = r + 1;
    }
    stats_.max_rbar = std::max(stats_.max_rbar, rbar);
    X.insert(X.end(), gamma.begin(), gamma.end());
    for (const int u : gamma) committed.push(u);
    // Remove N(v)^{r̄+1}, which keeps the union of the picks feasible.
    for (const int u :
         graph::kHopNeighborhoodAlive(*graph_, v, rbar + 1, alive)) {
      alive[static_cast<std::size_t>(u)] = 0;
    }
  }

  std::sort(X.begin(), X.end());
  return {X, sys.weight(X)};
}

sched::OneShotResult ScanMultiChannelScheduler::schedule(
    const core::System& sys) {
  const int n = sys.numReaders();
  core::WeightEvaluator eval(sys);
  std::vector<int> chosen;
  std::vector<int> chan;
  while (!cancelled()) {
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

  sched::OneShotResult res;
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
      geometricServed(sys, res.readers, res.channel).size());
  return res;
}

sched::OneShotResult RefereeAudit::schedule(const core::System& sys) {
  const int call = calls_++;
  const StandaloneCensus census = standaloneCensus(sys);
  for (int v = 0; v < sys.numReaders(); ++v) {
    if (sys.singleWeight(v) != census.weights[static_cast<std::size_t>(v)]) {
      ADD_FAILURE() << "call " << call << ": singleWeight(" << v
                    << ") disagrees with the coverers referee";
      break;
    }
  }
  EXPECT_EQ(sys.unreadCoverableCount(), census.unread_coverable)
      << "call " << call;
  sched::OneShotResult res = inner_->schedule(sys);
  EXPECT_EQ(sys.weight(res.readers), weight(sys, res.readers))
      << "call " << call;
  EXPECT_EQ(sys.wellCoveredTags(res.readers), wellCoveredTags(sys, res.readers))
      << "call " << call;
  return res;
}

namespace {

/// Enumerates every feasible scheduling set's "exactly-once coverage" mask
/// over the coverable unread tags.  The mask is independent of the unread
/// state: activating X always serves (mask ∩ current-unread).
class MaskCollector {
 public:
  MaskCollector(const core::System& sys, const std::vector<int>& tag_bit)
      : sys_(sys), tag_bit_(tag_bit) {
    for (int v = 0; v < sys.numReaders(); ++v) {
      if (sys.singleWeight(v) > 0) useful_.push_back(v);
    }
    count_.assign(tag_bit.size(), 0);
  }

  std::vector<std::uint32_t> collect() {
    recurse(0);
    // Dominance pruning: a mask contained in another is never preferable.
    std::sort(masks_.begin(), masks_.end(),
              [](std::uint32_t a, std::uint32_t b) {
                return std::popcount(a) > std::popcount(b);
              });
    std::vector<std::uint32_t> maximal;
    for (const std::uint32_t m : masks_) {
      if (m == 0) continue;
      bool dominated = false;
      for (const std::uint32_t big : maximal) {
        if ((m & big) == m) { dominated = true; break; }
      }
      if (!dominated) maximal.push_back(m);
    }
    return maximal;
  }

 private:
  void recurse(std::size_t pos) {
    masks_.push_back(currentMask());
    for (std::size_t i = pos; i < useful_.size(); ++i) {
      const int v = useful_[i];
      bool ok = true;
      for (const int u : chosen_) {
        if (!sys_.independent(u, v)) { ok = false; break; }
      }
      if (!ok) continue;
      push(v);
      recurse(i + 1);
      pop(v);
    }
  }

  std::uint32_t currentMask() const {
    std::uint32_t m = 0;
    for (std::size_t b = 0; b < count_.size(); ++b) {
      if (count_[b] == 1) m |= (1u << b);
    }
    return m;
  }

  void push(int v) {
    sys_.coveredTags(v, cov_);
    for (const int t : cov_) {
      const int bit = tag_bit_[static_cast<std::size_t>(t)];
      if (bit >= 0) ++count_[static_cast<std::size_t>(bit)];
    }
    chosen_.push_back(v);
  }

  void pop(int v) {
    sys_.coveredTags(v, cov_);
    for (const int t : cov_) {
      const int bit = tag_bit_[static_cast<std::size_t>(t)];
      if (bit >= 0) --count_[static_cast<std::size_t>(bit)];
    }
    chosen_.pop_back();
  }

  const core::System& sys_;
  const std::vector<int>& tag_bit_;  // tag index -> bit (or -1)
  std::vector<int> useful_;
  std::vector<int> chosen_;
  std::vector<int> count_;
  std::vector<int> cov_;  // push/pop's coverage row buffer
  std::vector<std::uint32_t> masks_;
};

}  // namespace

OptimalMcsResult optimalCoveringScheduleSize(const core::System& sys,
                                             std::int64_t max_states) {
  if (max_states <= 0) max_states = 4'000'000;
  assert(sys.numReaders() <= 20 && "exact MCS is for tiny instances");

  // Bit-index the coverable unread tags.
  std::vector<int> tag_bit(static_cast<std::size_t>(sys.numTags()), -1);
  int bits = 0;
  for (int t = 0; t < sys.numTags(); ++t) {
    if (!sys.isRead(t) && !sys.coverers(t).empty()) {
      tag_bit[static_cast<std::size_t>(t)] = bits++;
    }
  }
  assert(bits <= 22 && "exact MCS needs <= 22 coverable tags");
  OptimalMcsResult res;
  if (bits == 0) {
    res.slots = 0;
    return res;
  }

  MaskCollector collector(sys, tag_bit);
  const std::vector<std::uint32_t> moves = collector.collect();
  const std::uint32_t full = bits == 32 ? ~0u : ((1u << bits) - 1);

  // BFS over unread masks.
  std::unordered_map<std::uint32_t, int> depth;
  std::queue<std::uint32_t> frontier;
  depth.emplace(full, 0);
  frontier.push(full);
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    const int d = depth.at(u);
    for (const std::uint32_t m : moves) {
      const std::uint32_t next = u & ~m;
      if (next == u) continue;
      ++res.states;
      if (res.states > max_states) return res;  // slots stays -1
      if (depth.find(next) != depth.end()) continue;
      if (next == 0) {
        res.slots = d + 1;
        return res;
      }
      depth.emplace(next, d + 1);
      frontier.push(next);
    }
  }
  // Unreachable in principle never happens — the singleton {v} serves all
  // of v's coverage — so arriving here means the state budget cut BFS off.
  return res;
}

}  // namespace rfid::test::ref
