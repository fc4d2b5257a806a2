#include "reference_paths.h"

#include <gtest/gtest.h>

#include <algorithm>

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

}  // namespace

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

}  // namespace rfid::test::ref
