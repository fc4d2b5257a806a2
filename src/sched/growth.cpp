#include "sched/growth.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "analysis/parallel.h"
#include "graph/traversal.h"
#include "obs/timer.h"
#include "sched/exact.h"

namespace rfid::sched {

GrowthScheduler::GrowthScheduler(const graph::InterferenceGraph& g,
                                 GrowthOptions opt)
    : graph_(&g), opt_(opt) {
  assert(opt_.rho > 1.0 && "rho must exceed 1 for inequality (1) to bind");
  assert(opt_.hop_cap >= 0);
}

/// Per-worker mutable state, reused across the components of one chunk.
/// runComponent restores `alive` and the evaluator to their pristine state
/// before returning, so construction cost is paid once per chunk.
struct GrowthScheduler::Worker {
  explicit Worker(const core::System& sys)
      : alive(static_cast<std::size_t>(sys.numReaders()), 0), eval(sys) {}
  std::vector<char> alive;
  core::WeightEvaluator eval;
  core::LazyGreedyQueue queue;
  // Bounded-BFS scratch: the Γ-growth and kill-neighborhood queries run
  // thousands of times per schedule on small neighborhoods; the stateless
  // kHopNeighborhoodAlive would pay an O(n) allocation + scan on each.
  graph::BfsScratch bfs;
  std::vector<int> hood;
  // Local-MWFS arena: one tiny branch & bound per pick; reusing the
  // instance rows and search buffers removes the dominant per-call cost.
  BnbScratch bnb;
};

void GrowthScheduler::ensureComponents(const core::System& sys) {
  if (groups_sys_id_ == sys.instanceId() &&
      groups_epoch_ == sys.structuralEpoch()) {
    return;
  }
  groups_sys_id_ = sys.instanceId();
  groups_epoch_ = sys.structuralEpoch();
  const int n = sys.numReaders();

  // Union-find over the union of the interference graph and the
  // shares-a-tag relation (readers covering a common tag).  Closure under
  // both is what makes the components independent: no shared tags means a
  // commit in one component never moves another component's marginal
  // deltas (or its B&B preload, whose foreign tags the local remap drops),
  // and no edges means kill neighborhoods stay inside.
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  const auto unite = [&parent, &find](int a, int b) {
    const int ra = find(a);
    const int rb = find(b);
    if (ra != rb) parent[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
  };
  for (int u = 0; u < n; ++u) {
    for (const int v : graph_->neighbors(u)) unite(u, v);
  }
  for (int t = 0; t < sys.numTags(); ++t) {
    const auto cs = sys.coverers(t);
    for (std::size_t i = 1; i < cs.size(); ++i) unite(cs[0], cs[i]);
  }

  // Dense component ids in order of smallest member; member lists ascending.
  groups_.clear();
  std::vector<int> comp_of(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    const int r = find(v);
    if (comp_of[static_cast<std::size_t>(r)] < 0) {
      comp_of[static_cast<std::size_t>(r)] = static_cast<int>(groups_.size());
      groups_.emplace_back();
    }
    groups_[static_cast<std::size_t>(comp_of[static_cast<std::size_t>(r)])]
        .push_back(v);
  }
}

void GrowthScheduler::runComponent(const core::System& sys,
                                   std::span<const int> comp, Worker& worker,
                                   CompResult& out) const {
  for (const int u : comp) worker.alive[static_cast<std::size_t>(u)] = 1;
  const std::int64_t work0 = worker.queue.workUnits();
  const std::int64_t ops0 = worker.eval.ops();
  const std::int64_t pops0 = worker.queue.pops();
  const std::int64_t stale0 = worker.queue.stalePops();
  worker.queue.beginRound(worker.eval, comp, standalone_.weights());

  while (true) {
    // Cancellation checkpoint: one poll per coordinator pick.  X is
    // feasible after every completed pick, so the partial set is a valid
    // (if lighter) one-shot answer.
    if (cancelled()) break;
    // Exact argmax of the marginal standalone weight over alive readers —
    // same pick, same tie-break (lowest index) as the reference scan.
    int vw = 0;
    const int v = worker.queue.pickBest(worker.alive, &vw);
    if (v < 0) break;
    ++out.stats.picks;

    // Grow Γ_r until inequality (1) fails (or the cap / the component edge
    // is hit — once N stops growing, Γ stops improving and (1) fails with
    // ratio 1 < ρ anyway).
    std::vector<int> gamma = {v};  // Γ_0 = MWFS within {v}
    int gamma_w = vw;
    int rbar = 0;
    for (int r = 0; r < opt_.hop_cap; ++r) {
      graph::kHopNeighborhoodAlive(*graph_, v, r + 1, worker.alive, worker.bfs,
                                   worker.hood);
      // Alone in its alive neighborhood: the MWFS over {v} is ({v}, w(v)'s
      // marginal) and inequality (1) fails immediately (w < ρ·w for ρ > 1,
      // and Γ_r ⊆ N(v)^{r+1} means the neighborhood can never grow again),
      // so the exact solve would expand nodes only to confirm the break.
      if (worker.hood.size() <= 1) break;
      const BnbResult next =
          maxWeightFeasibleSubset(sys, worker.hood, opt_.node_limit,
                                  worker.eval, cancelToken(), &worker.bnb);
      out.stats.bnb_nodes += next.nodes;
      if (static_cast<double>(next.weight) <
          opt_.rho * static_cast<double>(gamma_w)) {
        break;  // first violation: keep Γ_r
      }
      gamma = next.members;
      gamma_w = next.weight;
      rbar = r + 1;
    }
    out.stats.max_rbar = std::max(out.stats.max_rbar, rbar);

    out.members.insert(out.members.end(), gamma.begin(), gamma.end());
    for (const int u : gamma) {
      worker.eval.push(u);
      worker.queue.invalidate(u);
    }

    // Remove N(v)^{r̄+1}; guarantees feasibility of the union across picks.
    graph::kHopNeighborhoodAlive(*graph_, v, rbar + 1, worker.alive, worker.bfs,
                                 worker.hood);
    for (const int u : worker.hood) {
      worker.alive[static_cast<std::size_t>(u)] = 0;
    }
  }

  out.work = worker.queue.workUnits() - work0;
  // The component's deterministic bill, read from the worker's own engines
  // (clear() below pops the committed members — take the snapshot first so
  // the teardown walks don't inflate the bill).
  out.bill.weight_evals = worker.eval.ops() - ops0;
  out.bill.csr_rows = out.bill.weight_evals;
  out.bill.queue_pops = worker.queue.pops() - pops0;
  out.bill.queue_stale_pops = worker.queue.stalePops() - stale0;
  out.bill.queue_work = out.work;
  out.bill.bnb_nodes = out.stats.bnb_nodes;
  worker.eval.clear();
  for (const int u : comp) worker.alive[static_cast<std::size_t>(u)] = 0;
}

OneShotResult GrowthScheduler::schedule(const core::System& sys) {
  assert(graph_->numNodes() == sys.numReaders());
  stats_ = {};
  obs::ScopedTimer sched_span(trace() != nullptr ? metrics() : nullptr,
                              "alg2.schedule_us", trace(),
                              "alg2.schedule");
  ensureComponents(sys);
  const core::StandaloneWeightCache::Stats sync0 = standalone_.stats();
  standalone_.sync(sys);
  {
    const core::StandaloneWeightCache::Stats& s = standalone_.stats();
    obs::CostBill b;
    b.cache_misses = s.full_builds - sync0.full_builds;
    b.cache_hits = s.diff_syncs - sync0.diff_syncs;
    b.cache_refreshes = s.rows_refreshed - sync0.rows_refreshed;
    b.csr_rows = b.cache_refreshes;
    chargeCost("alg2.cache_sync", b);
  }

  // Solve the interaction components independently — they share no tags and
  // no edges, so each per-component greedy run is exactly the restriction
  // of the reference global run — and reduce in component order, which
  // makes the result (and the stats) identical for every thread count.
  const int num_comps = static_cast<int>(groups_.size());
  std::vector<CompResult> results(static_cast<std::size_t>(num_comps));
  const std::uint64_t parent_span = sched_span.spanId();
  analysis::parallelForChunks(
      0, num_comps,
      [this, &sys, &results, parent_span](int /*worker_idx*/, int lo, int hi) {
        Worker worker(sys);
        for (int c = lo; c < hi; ++c) {
          CompResult& res = results[static_cast<std::size_t>(c)];
          std::optional<obs::ScopedTimer> span;
          if (trace() != nullptr) {
            // Worker-thread span: the causal parent (the alg2.schedule
            // span) lives on the dispatching thread, so set it explicitly.
            span.emplace(nullptr, "alg2.component_us", trace(),
                         "alg2.component");
            span->setParent(parent_span);
            span->arg("component", static_cast<double>(c));
          }
          runComponent(sys, groups_[static_cast<std::size_t>(c)], worker, res);
          if (span.has_value()) {
            span->arg("picks", static_cast<double>(res.stats.picks));
            span->arg("members", static_cast<double>(res.members.size()));
            span->arg("bnb_nodes", static_cast<double>(res.stats.bnb_nodes));
          }
        }
      },
      opt_.num_threads);

  std::vector<int> X;
  std::int64_t work = 0;
  obs::CostBill selection;
  obs::CostBill bnb;
  for (const CompResult& r : results) {
    X.insert(X.end(), r.members.begin(), r.members.end());
    stats_.picks += r.stats.picks;
    stats_.bnb_nodes += r.stats.bnb_nodes;
    stats_.max_rbar = std::max(stats_.max_rbar, r.stats.max_rbar);
    work += r.work;
    selection.add(r.bill);
  }
  // Split the component bills into the selection machinery and the local
  // exact solves so the report can compare the two lines directly.
  bnb.bnb_nodes = selection.bnb_nodes;
  selection.bnb_nodes = 0;
  chargeCost("alg2.selection", selection);
  chargeCost("alg2.bnb", bnb);
  std::sort(X.begin(), X.end());
  recordScheduleMetrics(work + stats_.bnb_nodes, stats_.picks);
  return {X, sys.weight(X)};
}

}  // namespace rfid::sched
