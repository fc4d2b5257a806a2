#include "core/weight.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rfid::core {

namespace {

/// Calls f(p) for every tag bit position p set in `bits` of block `word`.
template <typename F>
void forEachBit(std::uint32_t word, std::uint64_t bits, F&& f) {
  const std::uint32_t base = word << 6;
  for (; bits != 0; bits &= bits - 1) {
    f(base + static_cast<std::uint32_t>(std::countr_zero(bits)));
  }
}

}  // namespace

WeightEvaluator::WeightEvaluator(const System& sys) : sys_(&sys) {
  count_.assign(sys.numTagBits(), 0);
}

int WeightEvaluator::push(int v) {
  stack_.push_back(v);
  return shift(v, 1);
}

int WeightEvaluator::pop() {
  assert(!stack_.empty());
  const int v = stack_.back();
  stack_.pop_back();
  return shift(v, -1);
}

int WeightEvaluator::shift(int v, int by) {
  ++ops_;
  const std::span<const std::uint64_t> read = sys_->readBits();
  int delta = 0;
  for (const BitEntry& e : sys_->bitRow(v)) {
    // Served tags never count, but multiplicities must still be tracked so
    // pop() restores state exactly.
    forEachBit(e.word, e.bits & read[e.word],
               [this, by](std::uint32_t p) { count_[p] += by; });
    // An unread tag is well-covered while exactly one member covers it:
    // push gains it on 0→1 and loses it to RRc on 1→2; pop reverses both.
    forEachBit(e.word, e.bits & ~read[e.word],
               [this, by, &delta](std::uint32_t p) {
                 const int c = count_[p];
                 count_[p] = c + by;
                 delta += (c + by == 1 ? 1 : 0) - (c == 1 ? 1 : 0);
               });
  }
  weight_ += delta;
  return delta;
}

int WeightEvaluator::peekDelta(int v) const {
  const std::span<const std::uint64_t> read = sys_->readBits();
  int delta = 0;
  for (const BitEntry& e : sys_->bitRow(v)) {
    forEachBit(e.word, e.bits & ~read[e.word], [this, &delta](std::uint32_t p) {
      delta += (count_[p] == 0 ? 1 : 0) - (count_[p] == 1 ? 1 : 0);
    });
  }
  return delta;
}

bool WeightEvaluator::checkInvariants(std::string* why) const {
  std::vector<int> expect(count_.size(), 0);
  for (const int v : stack_) {
    for (const BitEntry& e : sys_->bitRow(v)) {
      forEachBit(e.word, e.bits, [&expect](std::uint32_t p) { ++expect[p]; });
    }
  }
  int w = 0;
  for (std::uint32_t p = 0; p < expect.size(); ++p) {
    if (expect[p] != count_[p]) {
      if (why != nullptr) {
        *why = "tag " + std::to_string(sys_->bitTag(p)) + " multiplicity " +
               std::to_string(count_[p]) + ", recount " +
               std::to_string(expect[p]);
      }
      return false;
    }
    if (expect[p] == 1 && !sys_->isRead(sys_->bitTag(p))) ++w;
  }
  if (w != weight_) {
    if (why != nullptr) {
      *why = "weight " + std::to_string(weight_) + ", recount " +
             std::to_string(w);
    }
    return false;
  }
  return true;
}

void WeightEvaluator::clear() {
  while (!stack_.empty()) pop();
  assert(weight_ == 0);
}

void StandaloneWeightCache::sync(const System& sys) {
  const auto n = static_cast<std::size_t>(sys.numReaders());
  const std::span<const std::uint64_t> live = sys.readBits();
  if (sys.instanceId() != sys_id_ || dirty_cursor_ < sys.dirtyLogBase()) {
    // New deployment, or the dirty-log window moved past our cursor
    // (compaction / rebuildIndex): rebuild from scratch.
    sys_id_ = sys.instanceId();
    standalone_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      standalone_[v] = sys.singleWeight(static_cast<int>(v));
    }
    shadow_bits_.assign(live.begin(), live.end());
    shadow_nbits_ = sys.numTagBits();
    dirty_cursor_ = sys.dirtyLogEnd();
    ++stats_.full_builds;
    stats_.rows_refreshed += static_cast<std::int64_t>(n);
    return;
  }
  ++stats_.diff_syncs;
  // Structural churn first: recompute exactly the rows mutations touched
  // since the last sync.  Tags appended since then enter the shadow at
  // their current bit — their coverers are all in the dirty log, so the
  // rows below absorb them exactly and the shadow must not flag a diff.
  const std::span<const int> dirty = sys.dirtyLogFrom(dirty_cursor_);
  dirty_cursor_ = sys.dirtyLogEnd();
  const std::uint32_t old_bits = shadow_nbits_;
  const std::uint32_t new_bits = sys.numTagBits();
  if (new_bits > old_bits) {
    shadow_bits_.resize(live.size(), 0);
    // Seed appended bit positions at their current read value so the diff
    // walk below sees no flip for them; the boundary word keeps its old
    // low bits (still subject to the diff) and absorbs the new high bits.
    for (std::uint32_t p = old_bits; p < new_bits; ++p) {
      const std::uint64_t bit = std::uint64_t{1} << (p & 63);
      shadow_bits_[p >> 6] =
          (shadow_bits_[p >> 6] & ~bit) | (live[p >> 6] & bit);
    }
    shadow_nbits_ = new_bits;
  }
  const bool churned = !dirty.empty();
  if (churned) {
    dirty_mask_.assign(n, 0);
    for (const int v : dirty) {
      if (dirty_mask_[static_cast<std::size_t>(v)] != 0) continue;
      dirty_mask_[static_cast<std::size_t>(v)] = 1;
      standalone_[static_cast<std::size_t>(v)] = sys.singleWeight(v);
      ++stats_.rows_refreshed;
    }
  }
  // Read-state diff: adjust only the coverers of tags whose read-state
  // flipped since the last sync (within the MCS loop, exactly the tags the
  // previous slot served) — skipping dirty rows, which are already exact.
  // XOR whole 64-tag blocks: unchanged blocks (the vast majority late in a
  // covering schedule) cost one compare each.
  for (std::size_t w = 0; w < shadow_bits_.size(); ++w) {
    std::uint64_t flips = live[w] ^ shadow_bits_[w];
    if (flips == 0) continue;
    shadow_bits_[w] = live[w];
    for (; flips != 0; flips &= flips - 1) {
      const auto p = static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(flips)));
      const int t = sys.bitTag(p);
      ++stats_.rows_refreshed;
      const int by = ((live[w] >> (p & 63)) & 1) != 0 ? -1 : 1;
      for (const int u : sys.coverers(t)) {
        if (churned && dirty_mask_[static_cast<std::size_t>(u)] != 0) continue;
        standalone_[static_cast<std::size_t>(u)] += by;
      }
    }
  }
}

void LazyGreedyQueue::beginRound(const WeightEvaluator& eval,
                                 std::span<const int> candidates,
                                 std::span<const int> seeds) {
  assert(eval.size() == 0 && "round must start from an empty evaluator");
  eval_ = &eval;
  sys_ = &eval.system();
  value_.resize(static_cast<std::size_t>(sys_->numReaders()));
  heap_.clear();
  heap_.reserve(candidates.size());
  for (const int v : candidates) {
    value_[static_cast<std::size_t>(v)] = seeds[static_cast<std::size_t>(v)];
    heap_.emplace_back(seeds[static_cast<std::size_t>(v)], v);
  }
  // Max-heap on (key desc, index asc): the comparator says "worse than",
  // so an equal-key entry with the *higher* index sinks.
  std::make_heap(heap_.begin(), heap_.end(), [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second > b.second);
  });
  work_units_ += static_cast<std::int64_t>(candidates.size());
}

int LazyGreedyQueue::pickBest(std::span<const char> eligible, int* delta_out) {
  const auto worse = [](const std::pair<int, int>& a,
                        const std::pair<int, int>& b) {
    return a.first < b.first || (a.first == b.first && a.second > b.second);
  };
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), worse);
    const auto [key, v] = heap_.back();
    heap_.pop_back();
    ++work_units_;
    ++pops_;
    // Lazy deletion: a key adjustment pushed a fresh entry, so an entry
    // whose key disagrees with the current exact delta is superseded.
    if (key != value_[static_cast<std::size_t>(v)]) {
      ++stale_pops_;
      continue;
    }
    if (eligible[static_cast<std::size_t>(v)] == 0) continue;
    // Keys are exact, so the surviving top is the true argmax; the greedy
    // rule only ever commits strictly positive deltas.
    if (key <= 0) return -1;
    assert(key == eval_->peekDelta(v));
    if (delta_out != nullptr) *delta_out = key;
    return v;
  }
  return -1;
}

void LazyGreedyQueue::adjust(int v, int by) {
  const int nv = (value_[static_cast<std::size_t>(v)] += by);
  heap_.emplace_back(nv, v);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const auto& a, const auto& b) {
                   return a.first < b.first ||
                          (a.first == b.first && a.second > b.second);
                 });
  ++work_units_;
}

void LazyGreedyQueue::invalidate(int v) {
  // Walk v's unread coverage through the inverted index and apply the exact
  // per-tag delta change implied by the multiplicity transition push(v)
  // caused: 0→1 turns the tag's +1 (exclusive gain) into −1 (RRc loss) for
  // every other coverer; 1→2 turns −1 into 0 — the transition where deltas
  // *grow*, which is why stale-upper-bound laziness is inadmissible here.
  // Entries for v itself (or dead readers) may be pushed; pickBest drops
  // them via the eligibility mask.  Tags are visited in ascending id: the
  // heap's lazy-deletion history (and so the work counters) depends on the
  // order of the adjustments, even though the picks do not.
  sys_->coveredTags(v, row_);
  for (const int t : row_) {
    if (sys_->isRead(t)) continue;
    const int c = eval_->multiplicity(t);
    if (c == 1) {
      for (const int u : sys_->coverers(t)) {
        if (u != v) adjust(u, -2);
      }
    } else if (c == 2) {
      for (const int u : sys_->coverers(t)) {
        if (u != v) adjust(u, 1);
      }
    }
  }
}

}  // namespace rfid::core
