#include "sched/exact.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/weight.h"
#include "obs/timer.h"

namespace rfid::sched {

namespace {

/// Branch & bound over a LocalProblem with dense tag ids.  All working
/// vectors live in a caller-provided BnbScratch so the hot local-solve path
/// (one tiny instance per Algorithm-2 pick) reuses capacity across calls;
/// every buffer is fully re-initialized here, so a reused scratch yields
/// bit-identical searches.
class Search {
 public:
  /// `preload_counts`, when non-null, supplies the committed-context
  /// multiplicities directly (count of committed coverers per tag id) and
  /// p.preload is ignored; the seeded counters are identical to walking a
  /// preload list holding each tag once per committed coverer.
  Search(const LocalProblem& p, std::int64_t node_limit,
         const ckpt::CancelToken* cancel, BnbScratch& s,
         const core::WeightEvaluator* preload_counts = nullptr)
      : p_(p), node_limit_(node_limit), cancel_(cancel), s_(s) {
    const int n = static_cast<int>(p.adj.size());
    // Densify tag ids for O(1) multiplicity counters.  Dense ids feed only
    // per-tag counters, so any bijection gives the same search; sort-and-
    // unique over the gathered candidate coverage beats a hash map here —
    // the id universe is small, contiguous passes are cache-friendly, and
    // lookups become branch-predictable binary searches.
    std::vector<int>& ids = s_.ids;
    ids.clear();
    for (int i = 0; i < n; ++i) {
      const auto& cov = p.coverage[static_cast<std::size_t>(i)];
      ids.insert(ids.end(), cov.begin(), cov.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    const auto dense = [&ids](int t) {
      return static_cast<int>(std::lower_bound(ids.begin(), ids.end(), t) -
                              ids.begin());
    };
    if (s_.coverage.size() < static_cast<std::size_t>(n)) {
      s_.coverage.resize(static_cast<std::size_t>(n));
    }
    for (int i = 0; i < n; ++i) {
      auto& cov = s_.coverage[static_cast<std::size_t>(i)];
      const auto& src = p.coverage[static_cast<std::size_t>(i)];
      cov.clear();
      for (const int t : src) cov.push_back(dense(t));
    }
    s_.count.assign(ids.size(), 0);
    // Preloaded context coverage: multiplicities the outside world already
    // holds on these tags.  Ids that no candidate covers are irrelevant.
    if (preload_counts != nullptr) {
      for (std::size_t d = 0; d < ids.size(); ++d) {
        s_.count[d] = preload_counts->multiplicity(ids[d]);
      }
    } else {
      for (const int t : p.preload) {
        const int d = dense(t);
        if (static_cast<std::size_t>(d) < ids.size() &&
            ids[static_cast<std::size_t>(d)] == t) {
          ++s_.count[static_cast<std::size_t>(d)];
        }
      }
    }
    for (const int c : s_.count) unclaimed_ += (c == 0);
    s_.conflict.assign(static_cast<std::size_t>(n), 0);

    // Explore high-coverage candidates first: better incumbents earlier,
    // tighter bounds.
    s_.order.resize(static_cast<std::size_t>(n));
    std::iota(s_.order.begin(), s_.order.end(), 0);
    std::stable_sort(s_.order.begin(), s_.order.end(), [this](int a, int b) {
      return s_.coverage[static_cast<std::size_t>(a)].size() >
             s_.coverage[static_cast<std::size_t>(b)].size();
    });
    s_.chosen.clear();
    s_.best.clear();
  }

  BnbResult run() {
    recurse(0);
    std::sort(s_.best.begin(), s_.best.end());
    return {s_.best, best_weight_, nodes_, !budget_hit_};
  }

 private:
  int pushCandidate(int c) {
    int delta = 0;
    for (const int t : s_.coverage[static_cast<std::size_t>(c)]) {
      const int k = s_.count[static_cast<std::size_t>(t)]++;
      if (k == 0) {
        ++delta;
        --unclaimed_;
      } else if (k == 1) {
        --delta;
      }
    }
    for (const int u : p_.adj[static_cast<std::size_t>(c)]) ++s_.conflict[static_cast<std::size_t>(u)];
    s_.chosen.push_back(c);
    weight_ += delta;
    return delta;
  }

  void popCandidate() {
    const int c = s_.chosen.back();
    s_.chosen.pop_back();
    int delta = 0;
    for (const int t : s_.coverage[static_cast<std::size_t>(c)]) {
      const int k = --s_.count[static_cast<std::size_t>(t)];
      if (k == 0) {
        --delta;
        ++unclaimed_;
      } else if (k == 1) {
        ++delta;
      }
    }
    for (const int u : p_.adj[static_cast<std::size_t>(c)]) --s_.conflict[static_cast<std::size_t>(u)];
    weight_ += delta;
  }

  /// Admissible bound, the tighter of two relaxations:
  ///  (a) adding candidate c raises the weight by at most |coverage(c)|,
  ///      summed over the still-selectable suffix;
  ///  (b) the weight can only grow by claiming currently-unclaimed tags,
  ///      so no completion gains more than `unclaimed_` in total.
  /// (b) is what kills the combinatorial tail on dense instances, where
  /// nearly every tag is already covered once and (a) stays huge.
  int suffixBound(std::size_t pos) const {
    int b = 0;
    for (std::size_t i = pos; i < s_.order.size(); ++i) {
      const int c = s_.order[i];
      if (s_.conflict[static_cast<std::size_t>(c)] == 0) {
        b += static_cast<int>(s_.coverage[static_cast<std::size_t>(c)].size());
        if (b >= unclaimed_) return unclaimed_;
      }
    }
    return b;
  }

  void recurse(std::size_t pos) {
    ++nodes_;
    if (node_limit_ > 0 && nodes_ > node_limit_) {
      budget_hit_ = true;
      return;
    }
    // Cooperative cancellation rides the node-budget path: poll every 4096
    // nodes (an atomic load is cheap, a steady_clock read is not) and bail
    // with the best incumbent found so far.
    if (cancel_ != nullptr && (nodes_ & 4095) == 0 && cancel_->cancelled()) {
      budget_hit_ = true;
      return;
    }
    if (weight_ > best_weight_) {
      best_weight_ = weight_;
      s_.best = s_.chosen;
    }
    if (pos >= s_.order.size()) return;
    if (weight_ + suffixBound(pos) <= best_weight_) return;  // prune

    const int c = s_.order[pos];
    if (s_.conflict[static_cast<std::size_t>(c)] == 0) {
      pushCandidate(c);
      recurse(pos + 1);
      popCandidate();
      if (budget_hit_) return;
    }
    recurse(pos + 1);
  }

  const LocalProblem& p_;
  std::int64_t node_limit_;
  const ckpt::CancelToken* cancel_;
  BnbScratch& s_;     // densified rows + counters + search stacks
  int unclaimed_ = 0;  // tags with multiplicity 0 (including preload)
  int weight_ = 0;
  int best_weight_ = 0;  // the empty set has weight 0
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

BnbResult solveLocal(const LocalProblem& problem, std::int64_t node_limit,
                     const ckpt::CancelToken* cancel, BnbScratch* scratch) {
  assert(problem.adj.size() == problem.coverage.size());
  BnbScratch local;  // empty vectors; a scratch-less call allocates as before
  Search s(problem, node_limit, cancel, scratch != nullptr ? *scratch : local);
  return s.run();
}

namespace {

/// Exact-sizes s.problem over `candidates` (solveLocal reads n off
/// adj.size()), clearing reused rows in place so capacity survives across
/// picks, and fills the conflict edges plus the unread coverage rows.
/// p.preload is untouched — each overload owns its preload semantics.
void assembleInstance(const core::System& sys, std::span<const int> candidates,
                      LocalProblem& p) {
  const int n = static_cast<int>(candidates.size());
  p.adj.resize(static_cast<std::size_t>(n));
  p.coverage.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    p.adj[static_cast<std::size_t>(i)].clear();
    p.coverage[static_cast<std::size_t>(i)].clear();
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!sys.independent(candidates[static_cast<std::size_t>(i)],
                           candidates[static_cast<std::size_t>(j)])) {
        p.adj[static_cast<std::size_t>(i)].push_back(j);
        p.adj[static_cast<std::size_t>(j)].push_back(i);
      }
    }
    auto& cov = p.coverage[static_cast<std::size_t>(i)];
    sys.coveredTags(candidates[static_cast<std::size_t>(i)], cov);
    std::erase_if(cov, [&sys](int t) { return sys.isRead(t); });
  }
}

}  // namespace

BnbResult maxWeightFeasibleSubset(const core::System& sys,
                                  std::span<const int> candidates,
                                  std::int64_t node_limit,
                                  std::span<const int> committed,
                                  const ckpt::CancelToken* cancel,
                                  BnbScratch* scratch) {
  BnbScratch local;
  BnbScratch& s = scratch != nullptr ? *scratch : local;
  LocalProblem& p = s.problem;
  p.preload.clear();
  std::vector<int> cov;
  for (const int c : committed) {
    sys.coveredTags(c, cov);
    for (const int t : cov) {
      if (!sys.isRead(t)) p.preload.push_back(t);
    }
  }
  assembleInstance(sys, candidates, p);
  BnbResult res = solveLocal(p, node_limit, cancel, &s);
  // Translate local indices back to reader indices.
  for (int& m : res.members) m = candidates[static_cast<std::size_t>(m)];
  std::sort(res.members.begin(), res.members.end());
  return res;
}

BnbResult maxWeightFeasibleSubset(const core::System& sys,
                                  std::span<const int> candidates,
                                  std::int64_t node_limit,
                                  const core::WeightEvaluator& committed,
                                  const ckpt::CancelToken* cancel,
                                  BnbScratch* scratch) {
  assert(&committed.system() == &sys);
  BnbScratch local;
  BnbScratch& s = scratch != nullptr ? *scratch : local;
  LocalProblem& p = s.problem;
  p.preload.clear();  // context multiplicities come straight off the evaluator
  assembleInstance(sys, candidates, p);
  Search search(p, node_limit, cancel, s, &committed);
  BnbResult res = search.run();
  for (int& m : res.members) m = candidates[static_cast<std::size_t>(m)];
  std::sort(res.members.begin(), res.members.end());
  return res;
}

OneShotResult ExactScheduler::schedule(const core::System& sys) {
  obs::ScopedTimer sched_span(trace() != nullptr ? metrics() : nullptr,
                              "exact.schedule_us", trace(),
                              "exact.schedule");
  std::vector<int> all(static_cast<std::size_t>(sys.numReaders()));
  std::iota(all.begin(), all.end(), 0);
  const BnbResult res =
      maxWeightFeasibleSubset(sys, all, node_limit_, {}, cancelToken());
  recordScheduleMetrics(res.nodes, sys.numReaders());
  {
    obs::CostBill b;
    b.bnb_nodes = res.nodes;
    b.csr_rows = static_cast<std::int64_t>(all.size());
    chargeCost("exact.bnb", b);
  }
  return {res.members, res.weight};
}

}  // namespace rfid::sched
