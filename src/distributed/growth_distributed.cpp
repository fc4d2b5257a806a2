#include "distributed/growth_distributed.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "obs/timer.h"
#include "sched/exact.h"
#include "workload/rng.h"

namespace rfid::dist {

namespace {

enum MsgType : int { kInfo = 1, kResult = 2 };

// INFO payload: [origin, weight, ttl, deg, neighbors..., ntags, tags...]
// RESULT payload: [head, ttl, |gamma|, gamma..., |removed|, removed...]
//
// On a lossy substrate (fault channel attached) INFO carries an extra epoch
// word after ttl: [origin, weight, ttl, epoch, deg, ...].  Epoch 0 is the
// initial flood; a blocked node re-floods with a bumped epoch, and relays
// forward any epoch newer than the last one they saw from that origin, so
// retries re-propagate through nodes that already hold the record.

struct InfoRecord {
  int weight = 0;
  std::vector<int> neighbors;
  std::vector<int> tags;
};

enum class NodeState { kWhite, kRed, kBlack };

class GrowthNode final : public NodeProgram {
 public:
  GrowthNode(int self, int weight, std::vector<int> tags,
             std::vector<int> neighbors, const DistributedGrowthOptions& opt)
      : self_(self), weight_(weight), opt_(opt) {
    InfoRecord mine;
    mine.weight = weight;
    mine.neighbors = std::move(neighbors);
    mine.tags = std::move(tags);
    info_.emplace(self, std::move(mine));
    // Zero-weight readers can never be heads or Γ members; they park as
    // Black relays immediately (they still forward floods below).
    if (weight_ == 0) state_ = NodeState::kBlack;
  }

  void init(Context& ctx) override {
    lossy_ = ctx.lossy();
    const InfoRecord& mine = info_.at(self_);
    ctx.broadcast(kInfo, encodeInfo(self_, weight_, collectRadius(), 0,
                                    mine.neighbors, mine.tags));
  }

  void onRound(Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (m.type == kInfo) {
        handleInfo(ctx, m);
      } else {
        handleResult(ctx, m);
      }
    }
    // Step 2: headship check once the (2c+2)-hop collection has settled.
    // The per-slot fire delay staggers coordinators that would otherwise
    // fire simultaneously without seeing each other's selections.
    const int delay = static_cast<int>(
        workload::splitmix64(static_cast<std::uint64_t>(self_) ^ opt_.salt) % 3);
    if (state_ == NodeState::kWhite && !fired_ &&
        ctx.round() >= collectRadius() + delay) {
      maybeBecomeHead(ctx);
      // Still White after the check means a rival we cannot hear from holds
      // headship over us; on a lossy substrate that silence may be a crash
      // or a dropped RESULT, so the blocked-retry/eviction clock runs.
      if (lossy_ && opt_.retry_patience > 0 && state_ == NodeState::kWhite &&
          !fired_) {
        handleBlocked(ctx);
      }
    }
  }

  bool isDone() const override { return state_ != NodeState::kWhite; }

  NodeState state() const { return state_; }
  bool wasHead() const { return fired_; }
  int rbar() const { return rbar_; }
  std::int64_t bnbNodes() const { return bnb_nodes_; }
  int infoRetries() const { return retries_total_; }
  int evictions() const { return evictions_; }

 private:
  int collectRadius() const { return 2 * opt_.c + 2; }

  std::vector<int> encodeInfo(int origin, int weight, int ttl, int epoch,
                              const std::vector<int>& neighbors,
                              const std::vector<int>& tags) const {
    std::vector<int> d;
    d.reserve(5 + neighbors.size() + 1 + tags.size());
    d.push_back(origin);
    d.push_back(weight);
    d.push_back(ttl);
    if (lossy_) d.push_back(epoch);
    d.push_back(static_cast<int>(neighbors.size()));
    d.insert(d.end(), neighbors.begin(), neighbors.end());
    d.push_back(static_cast<int>(tags.size()));
    d.insert(d.end(), tags.begin(), tags.end());
    return d;
  }

  void handleInfo(Context& ctx, const Message& m) {
    std::size_t p = 0;
    const int origin = m.data[p++];
    const int w = m.data[p++];
    const int ttl = m.data[p++];
    const int epoch = lossy_ ? m.data[p++] : 0;
    if (info_.count(origin) != 0) {
      if (!lossy_) return;  // already known; drop duplicate
      // Known origin: a newer epoch is a retry from a live but stuck node.
      // Forward it (relays already hold the record, so the initial-flood
      // dedup would otherwise smother the retry), answer it if we are a
      // fired head (our RESULT may be exactly what the origin lost), and
      // treat it as proof of life for an evicted rival.
      auto& last_epoch = info_epoch_[origin];
      if (epoch <= last_epoch) return;
      last_epoch = epoch;
      evicted_.erase(origin);
      blocked_rounds_ = 0;
      if (fired_ && origin != self_ && !result_payload_.empty()) {
        ctx.broadcast(kResult, result_payload_);
      }
      if (ttl > 1) {
        const InfoRecord& rec = info_.at(origin);
        ctx.broadcast(kInfo, encodeInfo(origin, rec.weight, ttl - 1, epoch,
                                        rec.neighbors, rec.tags));
      }
      return;
    }
    InfoRecord rec;
    rec.weight = w;
    const int deg = m.data[p++];
    rec.neighbors.assign(m.data.begin() + static_cast<std::ptrdiff_t>(p),
                         m.data.begin() + static_cast<std::ptrdiff_t>(p + static_cast<std::size_t>(deg)));
    p += static_cast<std::size_t>(deg);
    const int ntags = m.data[p++];
    rec.tags.assign(m.data.begin() + static_cast<std::ptrdiff_t>(p),
                    m.data.begin() + static_cast<std::ptrdiff_t>(p + static_cast<std::size_t>(ntags)));
    info_.emplace(origin, std::move(rec));
    if (lossy_) {
      info_epoch_[origin] = epoch;
      blocked_rounds_ = 0;
    }
    if (ttl > 1) {
      ctx.broadcast(kInfo, encodeInfo(origin, w, ttl - 1, epoch,
                                      info_.at(origin).neighbors,
                                      info_.at(origin).tags));
    }
  }

  void handleResult(Context& ctx, const Message& m) {
    std::size_t p = 0;
    const int head = m.data[p++];
    const int ttl = m.data[p++];
    blocked_rounds_ = 0;  // any RESULT traffic is protocol progress
    if (seen_results_.count(head) != 0) return;
    seen_results_.insert(head);
    const int ng = m.data[p++];
    std::vector<int> gamma(m.data.begin() + static_cast<std::ptrdiff_t>(p),
                           m.data.begin() + static_cast<std::ptrdiff_t>(p + static_cast<std::size_t>(ng)));
    p += static_cast<std::size_t>(ng);
    const int nr = m.data[p++];
    std::vector<int> removed(m.data.begin() + static_cast<std::ptrdiff_t>(p),
                             m.data.begin() + static_cast<std::ptrdiff_t>(p + static_cast<std::size_t>(nr)));

    applyResult(gamma, removed);
    if (ttl > 1) {
      std::vector<int> relay = m.data;
      relay[1] = ttl - 1;
      ctx.broadcast(kResult, relay);
    }
  }

  void applyResult(const std::vector<int>& gamma,
                   const std::vector<int>& removed) {
    for (const int u : removed) removed_.insert(u);
    for (const int u : gamma) {
      removed_.insert(u);
      selected_.insert(u);
    }
    if (state_ != NodeState::kWhite) return;
    if (std::find(gamma.begin(), gamma.end(), self_) != gamma.end()) {
      state_ = NodeState::kRed;  // selected for this slot
    } else if (removed_.count(self_) != 0) {
      state_ = NodeState::kBlack;  // suppressed by a nearby coordinator
    }
  }

  /// BFS over collected knowledge, relaying only through non-removed nodes
  /// (the paper deletes N^{r̄+1} from G; deleted nodes carry no hops).
  /// Returns hop distance per known node id; nodes without collected INFO
  /// are unreachable by construction.
  std::unordered_map<int, int> localBfs(int max_hops) const {
    std::unordered_map<int, int> dist;
    dist.emplace(self_, 0);
    std::queue<int> q;
    q.push(self_);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      const int du = dist.at(u);
      if (du >= max_hops) continue;
      const auto it = info_.find(u);
      if (it == info_.end()) continue;
      for (const int v : it->second.neighbors) {
        if (removed_.count(v) != 0 || dist.count(v) != 0) continue;
        dist.emplace(v, du + 1);
        q.push(v);
      }
    }
    return dist;
  }

  void maybeBecomeHead(Context& ctx) {
    // Strict (weight, id) maximum among the White readers this node has
    // collected INFO from.  Collection travels over the sensing graph, so
    // rivals in other interference-graph components — but close enough to
    // RRc-collide — are visible here and serialize instead of firing
    // concurrently.
    if (blockingRival() >= 0) return;  // a larger White rival exists; defer
    becomeHead(ctx);
  }

  /// The strict (weight, id) maximum among known White rivals that outrank
  /// this node, or -1 when none does (then this node may fire).  Rivals
  /// evicted by the retry clock are skipped — they are presumed crashed.
  int blockingRival() const {
    int best = -1;
    std::pair<int, int> best_key{weight_, self_};
    for (const auto& [u, rec] : info_) {
      if (u == self_) continue;
      if (rec.weight == 0) continue;         // idle relay, never a rival
      if (removed_.count(u) != 0) continue;  // no longer White
      if (evicted_.count(u) != 0) continue;  // presumed crashed
      if (std::pair(rec.weight, u) > best_key) {
        best = u;
        best_key = {rec.weight, u};
      }
    }
    return best;
  }

  /// Lossy-mode liveness: a White node stuck behind a silent rival re-floods
  /// its INFO with a bumped epoch (patience doubles per retry); fired heads
  /// answer such retries by re-flooding their RESULT.  When the retry budget
  /// is spent the rival is evicted from headship consideration, so the
  /// strict (weight, id) order over the *live* nodes keeps making progress
  /// and quiescence cannot deadlock on a crashed coordinator.
  void handleBlocked(Context& ctx) {
    ++blocked_rounds_;
    const int patience = opt_.retry_patience << std::min(retries_, 8);
    if (blocked_rounds_ < patience) return;
    blocked_rounds_ = 0;
    if (retries_ < opt_.max_retries) {
      ++retries_;
      ++retries_total_;
      ++epoch_;
      const InfoRecord& mine = info_.at(self_);
      ctx.broadcast(kInfo, encodeInfo(self_, weight_, collectRadius(), epoch_,
                                      mine.neighbors, mine.tags));
      return;
    }
    const int rival = blockingRival();
    if (rival >= 0) {
      evicted_.insert(rival);
      ++evictions_;
    }
    retries_ = 0;  // fresh retry budget against the next blocker, if any
  }

  void becomeHead(Context& ctx) {
    fired_ = true;
    // Grow Γ_r per inequality (1) over collected knowledge, scored
    // *marginally* to the selections this node has learned about: readers
    // chosen by earlier coordinators may share interrogation area with our
    // candidates, and double-covering their tags scores negative.
    const sched::BnbResult own = solveOn({self_});
    std::vector<int> gamma = own.members;
    int gamma_w = own.weight;
    rbar_ = 0;
    for (int r = 0; r < opt_.c; ++r) {
      const auto dist = localBfs(r + 1);
      std::vector<int> candidates;
      for (const auto& [u, d] : dist) {
        const auto it = info_.find(u);
        if (it != info_.end() && it->second.weight > 0) candidates.push_back(u);
      }
      std::sort(candidates.begin(), candidates.end());
      const sched::BnbResult next = solveOn(candidates);
      if (static_cast<double>(next.weight) <
          opt_.rho * static_cast<double>(gamma_w)) {
        break;
      }
      gamma = next.members;
      gamma_w = next.weight;
      rbar_ = r + 1;
    }

    // N^{r̄+1} over the residual graph becomes the removal wave.  When the
    // marginal optimum is empty (everything this region could read is
    // already claimed), only this node retires — suppressing neighbors
    // would throw away readers other coordinators may still want.
    std::vector<int> removed;
    if (gamma.empty()) {
      removed.push_back(self_);
    } else {
      for (const auto& [u, d] : localBfs(rbar_ + 1)) removed.push_back(u);
    }
    std::sort(removed.begin(), removed.end());
    std::sort(gamma.begin(), gamma.end());

    applyResult(gamma, removed);
    if (state_ == NodeState::kWhite) state_ = NodeState::kBlack;
    seen_results_.insert(self_);

    std::vector<int> d;
    d.reserve(4 + gamma.size() + removed.size());
    d.push_back(self_);
    d.push_back(rbar_ + 1 + collectRadius());
    d.push_back(static_cast<int>(gamma.size()));
    d.insert(d.end(), gamma.begin(), gamma.end());
    d.push_back(static_cast<int>(removed.size()));
    d.insert(d.end(), removed.begin(), removed.end());
    // Keep the flood payload around on a lossy substrate: an epoch'd INFO
    // retry from a node our wave never reached gets answered with exactly
    // this message (targeted recovery instead of a timed rebroadcast).
    if (lossy_) result_payload_ = d;
    ctx.broadcast(kResult, d);
  }

  /// Exact MWFS over `candidates` using only message-collected knowledge:
  /// conflict edges from the exchanged neighbor lists, weights from the
  /// exchanged unread-tag ids (shared ids model RRc overlap), marginal to
  /// the coverage of already-selected readers we know about.
  sched::BnbResult solveOn(const std::vector<int>& candidates) const {
    sched::LocalProblem p;
    for (const int s : selected_) {
      const auto it = info_.find(s);
      if (it == info_.end()) continue;
      p.preload.insert(p.preload.end(), it->second.tags.begin(),
                       it->second.tags.end());
    }
    const int n = static_cast<int>(candidates.size());
    p.adj.resize(static_cast<std::size_t>(n));
    p.coverage.resize(static_cast<std::size_t>(n));
    std::unordered_map<int, int> local_index;
    for (int i = 0; i < n; ++i) local_index.emplace(candidates[static_cast<std::size_t>(i)], i);
    for (int i = 0; i < n; ++i) {
      const InfoRecord& rec = info_.at(candidates[static_cast<std::size_t>(i)]);
      p.coverage[static_cast<std::size_t>(i)] = rec.tags;
      for (const int u : rec.neighbors) {
        const auto it = local_index.find(u);
        if (it != local_index.end() && it->second > i) {
          p.adj[static_cast<std::size_t>(i)].push_back(it->second);
          p.adj[static_cast<std::size_t>(it->second)].push_back(i);
        }
      }
    }
    for (auto& a : p.adj) std::sort(a.begin(), a.end());
    sched::BnbResult res = sched::solveLocal(p, opt_.node_limit);
    bnb_nodes_ += res.nodes;
    for (int& m : res.members) m = candidates[static_cast<std::size_t>(m)];
    std::sort(res.members.begin(), res.members.end());
    return res;
  }

  int self_;
  int weight_;
  DistributedGrowthOptions opt_;
  NodeState state_ = NodeState::kWhite;
  bool fired_ = false;
  int rbar_ = 0;
  // Branch & bound nodes expanded by this reader's local MWFS solves (the
  // distributed analogue of sched.weight_evals); accumulated from solveOn.
  mutable std::int64_t bnb_nodes_ = 0;
  std::unordered_map<int, InfoRecord> info_;
  std::unordered_set<int> removed_;
  std::unordered_set<int> selected_;
  std::unordered_set<int> seen_results_;
  // Fault hardening state (touched only on a lossy substrate).
  bool lossy_ = false;
  int epoch_ = 0;
  int blocked_rounds_ = 0;
  int retries_ = 0;
  int retries_total_ = 0;
  int evictions_ = 0;
  std::vector<int> result_payload_;
  std::unordered_map<int, int> info_epoch_;
  std::unordered_set<int> evicted_;
};

}  // namespace

GrowthDistributedScheduler::GrowthDistributedScheduler(
    const graph::InterferenceGraph& g, DistributedGrowthOptions opt)
    : graph_(&g), opt_(opt) {
  assert(opt_.rho > 1.0);
  assert(opt_.c >= 1);
}

sched::OneShotResult GrowthDistributedScheduler::schedule(
    const core::System& sys) {
  assert(graph_->numNodes() == sys.numReaders());
  obs::ScopedTimer sched_span(trace_ != nullptr ? metrics_ : nullptr,
                              "alg3.schedule_us", trace_,
                              "alg3.schedule");
  const int n = sys.numReaders();
  stats_ = {};
  ++opt_.salt;  // new symmetry-breaking pattern each slot

  // Control traffic flows over the sensing graph (see buildSensingGraph):
  // a supergraph of the interference graph that connects every pair of
  // readers able to RRc-collide.  Interference semantics (conflict edges,
  // N^r, removal waves) stay on `graph_`.
  if (comm_ == nullptr) {
    comm_ = std::make_unique<graph::InterferenceGraph>(
        graph::buildSensingGraph(sys));
  }

  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    std::vector<int> unread_tags;
    sys.coveredTags(v, unread_tags);
    std::erase_if(unread_tags, [&sys](int t) { return sys.isRead(t); });
    const auto nb = graph_->neighbors(v);
    programs.push_back(std::make_unique<GrowthNode>(
        v, sys.singleWeight(v), std::move(unread_tags),
        std::vector<int>(nb.begin(), nb.end()), opt_));
  }

  Network net(*comm_, std::move(programs));
  net.attachObs(metrics_, trace_);
  net.attachChannel(channel_);
  const Network::RunStats run = net.run(opt_.max_rounds, cancelToken());
  stats_.rounds = run.rounds;
  stats_.messages = run.messages;
  stats_.payload_words = run.payload_words;
  stats_.quiesced = run.all_done;

  std::vector<int> X;
  std::int64_t bnb_nodes = 0;
  for (int v = 0; v < n; ++v) {
    const auto& node = static_cast<const GrowthNode&>(net.program(v));
    if (node.state() == NodeState::kRed) X.push_back(v);
    bnb_nodes += node.bnbNodes();
    if (node.wasHead()) {
      ++stats_.heads;
      stats_.max_rbar = std::max(stats_.max_rbar, node.rbar());
    }
    stats_.info_retries += node.infoRetries();
    stats_.evicted_rivals += node.evictions();
  }
  if (metrics_ != nullptr && channel_ != nullptr) {
    metrics_->counter("fault.sched.info_retries").add(stats_.info_retries);
    metrics_->counter("fault.sched.evicted_rivals").add(stats_.evicted_rivals);
  }
  recordScheduleMetrics(bnb_nodes, stats_.heads);
  {
    obs::CostBill b;
    b.weight_evals = n;  // per-node singleWeight during program construction
    b.csr_rows = n;
    b.bnb_nodes = bnb_nodes;
    b.net_messages = run.messages;
    b.net_rounds = run.rounds;
    chargeCost("alg3.protocol", b);
  }
  return {X, sys.weight(X)};
}

}  // namespace rfid::dist
