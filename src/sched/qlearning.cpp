#include "sched/qlearning.h"

#include <algorithm>
#include <cassert>

namespace rfid::sched {

QLearningScheduler::QLearningScheduler(std::uint64_t seed,
                                       QLearningOptions opt)
    : opt_(opt), rng_(seed) {
  assert(opt_.frame_slots >= 1);
  assert(opt_.alpha > 0.0 && opt_.alpha <= 1.0);
}

void QLearningScheduler::train(const core::System& sys) {
  const int n = sys.numReaders();
  const int S = opt_.frame_slots;
  if (static_cast<int>(q_.size()) != n) {
    q_.assign(static_cast<std::size_t>(n),
              std::vector<double>(static_cast<std::size_t>(S), 0.0));
  }

  double eps = opt_.epsilon;
  std::vector<int> pick(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> per_slot(static_cast<std::size_t>(S));
  std::vector<int> cov;
  double episode_reward = 0.0;

  for (int e = 0; e < opt_.episodes; ++e) {
    // ε-greedy slot choice per reader.
    for (int v = 0; v < n; ++v) {
      if (rng_.uniform(0.0, 1.0) < eps) {
        pick[static_cast<std::size_t>(v)] = rng_.uniformInt(0, S - 1);
      } else {
        const auto& row = q_[static_cast<std::size_t>(v)];
        pick[static_cast<std::size_t>(v)] = static_cast<int>(
            std::max_element(row.begin(), row.end()) - row.begin());
      }
    }
    // Simulate the frame: per slot, who would serve what.
    for (auto& s : per_slot) s.clear();
    for (int v = 0; v < n; ++v) {
      per_slot[static_cast<std::size_t>(pick[static_cast<std::size_t>(v)])].push_back(v);
    }
    episode_reward = 0.0;
    for (int s = 0; s < S; ++s) {
      const auto& active = per_slot[static_cast<std::size_t>(s)];
      if (active.empty()) continue;
      // Reward per reader: its exclusively-served unread tags this slot —
      // the "successful read" feedback HiQ learns from.  Victims earn 0.
      const std::vector<int> served = sys.wellCoveredTags(active);
      for (const int v : active) {
        int reward = 0;
        sys.coveredTags(v, cov);
        for (const int t : cov) {
          if (std::binary_search(served.begin(), served.end(), t)) ++reward;
        }
        double& qv = q_[static_cast<std::size_t>(v)][static_cast<std::size_t>(s)];
        qv = (1.0 - opt_.alpha) * qv + opt_.alpha * reward;
        episode_reward += reward;
      }
    }
    eps *= opt_.epsilon_decay;
  }
  ++stats_.trainings;
  stats_.episodes_run += opt_.episodes;
  stats_.last_mean_reward =
      opt_.episodes > 0 ? episode_reward / std::max(1, n) : 0.0;
  slots_since_training_ = 0;
}

std::vector<int> QLearningScheduler::assignment() const {
  std::vector<int> a;
  a.reserve(q_.size());
  for (const auto& row : q_) {
    a.push_back(static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin()));
  }
  return a;
}

OneShotResult QLearningScheduler::schedule(const core::System& sys) {
  const bool stale = opt_.retrain_every > 0 &&
                     slots_since_training_ >= opt_.retrain_every;
  if (slots_since_training_ < 0 || stale ||
      static_cast<int>(q_.size()) != sys.numReaders()) {
    train(sys);
  }
  const std::vector<int> a = assignment();
  const int s = slot_counter_ % opt_.frame_slots;
  ++slot_counter_;
  ++slots_since_training_;

  std::vector<int> active;
  for (int v = 0; v < sys.numReaders(); ++v) {
    if (a[static_cast<std::size_t>(v)] == s) active.push_back(v);
  }
  recordScheduleMetrics(1, opt_.frame_slots);
  return {active, sys.weight(active)};
}

}  // namespace rfid::sched
