#include "sched/optimal_mcs.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace rfid::sched {

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

}  // namespace rfid::sched
