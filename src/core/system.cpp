#include "core/system.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "geometry/morton.h"

namespace rfid::core {

namespace {

std::uint64_t nextInstanceId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Below this many radiating readers the O(k²) victim scan beats the grid
/// queries (it touches no cells and no qbuf); both produce the exact same
/// flags, so the threshold is pure tuning.
constexpr std::size_t kVictimGridThreshold = 12;

}  // namespace

System::System(std::vector<Reader> readers, std::vector<Tag> tags)
    : readers_(std::move(readers)), tags_(std::move(tags)),
      instance_id_(nextInstanceId()) {
  for (std::size_t i = 0; i < readers_.size(); ++i) {
    readers_[i].id = static_cast<int>(i);
    assert(readers_[i].valid() && "reader must satisfy 0 < gamma <= R");
  }
  for (std::size_t i = 0; i < tags_.size(); ++i) tags_[i].id = static_cast<int>(i);

  departed_.assign(tags_.size(), 0);
  read_.assign(tags_.size(), 0);
  buildIndex();
  assignSfcOrder();
  buildBitmap();

  // The reader grid is built here, once per System (readers never move):
  // the referee's victim pass queries it from const, concurrent weight
  // evaluations, and addTag/moveTag from their coverer queries.
  {
    std::vector<geom::Vec2> reader_pos;
    reader_pos.reserve(readers_.size());
    for (const Reader& r : readers_) reader_pos.push_back(r.pos);
    reader_index_ = std::make_shared<geom::SpatialGrid>(reader_pos, max_gamma_);
  }
  buildInterferenceRows();

  initScratch(scratch_);
}

void System::buildIndex() {
  // Index tags once; coverage queries are disk queries around readers.
  double max_gamma = 1.0;
  for (const Reader& r : readers_) max_gamma = std::max(max_gamma, r.interrogation_radius);
  max_gamma_ = max_gamma;
  std::vector<geom::Vec2> tag_pos;
  tag_pos.reserve(tags_.size());
  for (const Tag& t : tags_) tag_pos.push_back(t.pos);
  const geom::SpatialGrid tag_index(tag_pos, max_gamma);

  // Build reader → tag coverage directly into the CSR arrays, then invert
  // by counting sort: iterating v ascending appends each tag's coverers in
  // ascending reader order, matching the per-list sort queryDisk provides
  // for tags.
  cov_off_.assign(readers_.size() + 1, 0);
  cov_idx_.clear();
  for (std::size_t v = 0; v < readers_.size(); ++v) {
    // queryDisk appends (and sorts the appended tail), so the flat index
    // array is produced directly, one reader after another.  Departed tags
    // still sit in the grid at their last position; drop them from the
    // appended tail (stable, preserving ascending order).
    const std::size_t before = cov_idx_.size();
    tag_index.queryDisk(readers_[v].pos, readers_[v].interrogation_radius,
                        cov_idx_);
    ++grid_queries_;
    std::size_t w = before;
    for (std::size_t r = before; r < cov_idx_.size(); ++r) {
      if (departed_[static_cast<std::size_t>(cov_idx_[r])] == 0) {
        cov_idx_[w++] = cov_idx_[r];
      }
    }
    cov_idx_.resize(w);
    cov_off_[v + 1] = static_cast<int>(cov_idx_.size());
  }

  covr_off_.assign(tags_.size() + 1, 0);
  for (const int t : cov_idx_) ++covr_off_[static_cast<std::size_t>(t) + 1];
  for (std::size_t t = 0; t < tags_.size(); ++t) covr_off_[t + 1] += covr_off_[t];
  covr_idx_.resize(cov_idx_.size());
  std::vector<int> cursor(covr_off_.begin(), covr_off_.end() - 1);
  for (std::size_t v = 0; v < readers_.size(); ++v) {
    for (const int t : coverage(static_cast<int>(v))) {
      covr_idx_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(t)]++)] =
          static_cast<int>(v);
    }
  }
  checkIndexCapacity();
}

void System::checkIndexCapacity() const {
  // The CSR offsets are int and the bitmap arena offsets are uint32: a
  // coverage index past 2^31 − 1 entries would wrap both.  Fail closed with
  // the sizing math rather than corrupt silently — the bench generators and
  // the CLI surface this message verbatim.
  constexpr std::size_t kMaxEntries = 0x7fffffff;
  if (cov_idx_.size() > kMaxEntries) {
    throw std::length_error(
        "coverage index overflow: n=" + std::to_string(readers_.size()) +
        " readers x m=" + std::to_string(tags_.size()) + " tags produce " +
        std::to_string(cov_idx_.size()) +
        " coverage entries, past the 2^31-1 a 32-bit arena offset can "
        "address; reduce density or split the deployment");
  }
}

void System::assignSfcOrder() {
  // Morton rank of the positions: tag t's coverage bit is bit_of_[t], and
  // reader v's bitmap row sits at arena slot row_of_[v].  The permutations
  // are fixed here once — mutations append past them and rebuilds reuse
  // them — so every external id (schedules, journals, goldens) stays in
  // original-id space and only this layer speaks Morton order.
  std::vector<geom::Vec2> pos;
  pos.reserve(tags_.size());
  for (const Tag& t : tags_) pos.push_back(t.pos);
  const std::vector<int> tag_order = geom::mortonOrder(pos);
  bit_of_.resize(tags_.size());
  tag_of_.resize(tags_.size());
  for (std::size_t k = 0; k < tag_order.size(); ++k) {
    tag_of_[k] = tag_order[k];
    bit_of_[static_cast<std::size_t>(tag_order[k])] = static_cast<std::uint32_t>(k);
  }
  pos.clear();
  pos.reserve(readers_.size());
  for (const Reader& r : readers_) pos.push_back(r.pos);
  const std::vector<int> reader_order = geom::mortonOrder(pos);
  row_of_.resize(readers_.size());
  reader_of_.resize(readers_.size());
  for (std::size_t k = 0; k < reader_order.size(); ++k) {
    reader_of_[k] = reader_order[k];
    row_of_[static_cast<std::size_t>(reader_order[k])] = static_cast<std::uint32_t>(k);
  }
}

void System::buildBitmap() {
  const std::size_t n = readers_.size();
  const std::size_t words = (tag_of_.size() + 63) / 64;
  bit_off_.assign(n + 1, 0);
  bit_arena_.clear();
  bit_arena_.reserve(cov_idx_.size());  // ≤ one entry per coverage element
  std::vector<std::uint32_t> bits;
  for (std::size_t r = 0; r < n; ++r) {
    const int v = reader_of_[r];
    const std::span<const int> cov = coverage(v);
    bits.clear();
    bits.reserve(cov.size());
    for (const int t : cov) bits.push_back(bit_of_[static_cast<std::size_t>(t)]);
    std::sort(bits.begin(), bits.end());
    for (const std::uint32_t p : bits) {
      const std::uint32_t w = p >> 6;
      if (bit_arena_.size() > bit_off_[r] && bit_arena_.back().word == w) {
        bit_arena_.back().bits |= std::uint64_t{1} << (p & 63);
      } else {
        bit_arena_.push_back({w, 0, std::uint64_t{1} << (p & 63)});
      }
    }
    bit_off_[r + 1] = static_cast<std::uint32_t>(bit_arena_.size());
  }
  bit_arena_.shrink_to_fit();  // the single arena allocation per System

  read_bits_.assign(words, 0);
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    if (read_[t] != 0) {
      const std::uint32_t p = bit_of_[t];
      read_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
  }
  coverable_bits_.assign(words, 0);
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    if (covr_off_[t + 1] > covr_off_[t]) {
      const std::uint32_t p = bit_of_[t];
      coverable_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
  }
}

void System::initScratch(WeightScratch& scratch) const {
  scratch.victim.assign(readers_.size(), 0);
  scratch.once.assign(read_bits_.size(), 0);
  scratch.twice.assign(read_bits_.size(), 0);
  scratch.touched.clear();
  scratch.marked.clear();
  scratch.qbuf.clear();
}

bool System::isFeasible(std::span<const int> X) const {
  for (std::size_t i = 0; i < X.size(); ++i) {
    for (std::size_t j = i + 1; j < X.size(); ++j) {
      if (X[i] == X[j]) return false;  // duplicates are not a set
      if (!independent(X[i], X[j])) return false;
    }
  }
  return true;
}

void System::markRead(std::span<const int> tags) {
  for (const int t : tags) markRead(t);
}

void System::resetReads() {
  std::fill(read_.begin(), read_.end(), 0);
  std::fill(read_bits_.begin(), read_bits_.end(), 0);
}

int System::unreadCount() const {
  int n = 0;
  for (const char r : read_) n += (r == 0);
  return n;
}

int System::unreadCoverableCount() const {
  int n = 0;
  for (std::size_t w = 0; w < coverable_bits_.size(); ++w) {
    n += std::popcount(coverable_bits_[w] & ~read_bits_[w]);
  }
  return n;
}

void System::buildInterferenceRows() {
  // At the paper's densities each interference disk holds a handful of
  // readers, so the rows cost O(n) memory and turn every victim pass from
  // a grid query into a short contiguous walk.  An adversarially dense
  // deployment (everyone inside everyone's disk) would cost O(n²); cap the
  // build and leave the grid fallback in place instead.
  const std::size_t cap =
      std::max<std::size_t>(std::size_t{1} << 22, readers_.size() * 64);
  intf_off_.assign(readers_.size() + 1, 0);
  intf_idx_.clear();
  std::vector<int> qbuf;
  for (std::size_t v = 0; v < readers_.size(); ++v) {
    qbuf.clear();
    reader_index_->queryDisk(readers_[v].pos, readers_[v].interference_radius,
                             qbuf);
    ++grid_queries_;
    for (const int u : qbuf) {
      if (static_cast<std::size_t>(u) != v) intf_idx_.push_back(u);
    }
    if (intf_idx_.size() > cap) {
      intf_off_.clear();
      intf_idx_.clear();
      intf_idx_.shrink_to_fit();
      return;
    }
    intf_off_[v + 1] = static_cast<int>(intf_idx_.size());
  }
}

void System::markVictims(std::span<const int> X, std::span<const int> jamming,
                         WeightScratch& scratch) const {
  // RTc victims among the radiators, Definition 1's second condition.  Both
  // paths compute the identical flags; `marked` records every flag set so
  // the scratch returns to all-zero afterwards.
  const std::size_t k = X.size() + jamming.size();
  if (intf_off_.empty() && k < kVictimGridThreshold) {
    for (const int vi : X) {
      const Reader& a = reader(vi);
      char f = 0;
      for (const int vj : X) {
        if (vi == vj) continue;
        const double rj = reader(vj).interference_radius;
        if (geom::dist2(a.pos, reader(vj).pos) <= rj * rj) { f = 1; break; }
      }
      if (f == 0) {
        for (const int vj : jamming) {
          if (vi == vj) continue;
          const double rj = reader(vj).interference_radius;
          if (geom::dist2(a.pos, reader(vj).pos) <= rj * rj) { f = 1; break; }
        }
      }
      if (f != 0) {
        scratch.victim[static_cast<std::size_t>(vi)] = 1;
        scratch.marked.push_back(vi);
      }
    }
    return;
  }
  // Row/grid pass: every radiator marks the readers inside its interference
  // disk (except itself).  Marks may land on non-members; only members'
  // flags are read, and every mark is undone through `marked`.  The
  // precomputed interference rows hold exactly the set the grid query
  // returns (minus the radiator), so both branches set identical flags.
  const bool rows = !intf_off_.empty();
  const auto mark_disk = [this, &scratch, rows](int vj) {
    if (rows) {
      const auto b = static_cast<std::size_t>(
          intf_off_[static_cast<std::size_t>(vj)]);
      const auto e = static_cast<std::size_t>(
          intf_off_[static_cast<std::size_t>(vj) + 1]);
      for (std::size_t i = b; i < e; ++i) {
        const int u = intf_idx_[i];
        if (scratch.victim[static_cast<std::size_t>(u)] != 0) continue;
        scratch.victim[static_cast<std::size_t>(u)] = 1;
        scratch.marked.push_back(u);
      }
      return;
    }
    const Reader& rj = reader(vj);
    scratch.qbuf.clear();
    reader_index_->queryDisk(rj.pos, rj.interference_radius, scratch.qbuf);
    for (const int u : scratch.qbuf) {
      if (u == vj || scratch.victim[static_cast<std::size_t>(u)] != 0) continue;
      scratch.victim[static_cast<std::size_t>(u)] = 1;
      scratch.marked.push_back(u);
    }
  };
  for (const int vj : X) mark_disk(vj);
  for (const int vj : jamming) mark_disk(vj);
}

int System::evalBitmap(std::span<const int> X, std::span<const int> jamming,
                       WeightScratch& scratch, std::vector<int>* out) const {
  const std::size_t words = read_bits_.size();
  if (scratch.once.size() < words) {
    // addTag grew the bit space past this scratch (caller-owned scratches
    // cannot be resized from the mutation path).
    scratch.once.resize(words, 0);
    scratch.twice.resize(words, 0);
  }
  markVictims(X, jamming, scratch);
  // Exactly-one counting, word-parallel: after the sweep `once & ~twice`
  // holds the bits covered by exactly one radiating reader.
  const auto accumulate = [this, &scratch](int v) {
    for (const BitEntry& e : bitRow(v)) {
      if (scratch.once[e.word] == 0) scratch.touched.push_back(static_cast<int>(e.word));
      scratch.twice[e.word] |= scratch.once[e.word] & e.bits;
      scratch.once[e.word] |= e.bits;
    }
  };
  for (const int v : X) accumulate(v);
  for (const int v : jamming) accumulate(v);
  // Emit: a well-covered tag's unique radiator is its non-victim member, so
  // walking the members' rows reports each exactly once, unread bits only.
  int w = 0;
  for (const int v : X) {
    if (scratch.victim[static_cast<std::size_t>(v)] != 0) continue;
    for (const BitEntry& e : bitRow(v)) {
      const std::uint64_t well = e.bits & scratch.once[e.word] &
                                 ~scratch.twice[e.word] & ~read_bits_[e.word];
      if (out == nullptr) {
        w += std::popcount(well);
      } else {
        const std::uint32_t base = e.word << 6;
        for (std::uint64_t b = well; b != 0; b &= b - 1) {
          out->push_back(
              tag_of_[base + static_cast<std::uint32_t>(std::countr_zero(b))]);
        }
      }
    }
  }
  if (out != nullptr) w = static_cast<int>(out->size());
  for (const int wd : scratch.touched) {
    scratch.once[static_cast<std::size_t>(wd)] = 0;
    scratch.twice[static_cast<std::size_t>(wd)] = 0;
  }
  scratch.touched.clear();
  for (const int v : scratch.marked) scratch.victim[static_cast<std::size_t>(v)] = 0;
  scratch.marked.clear();
  return w;
}

std::vector<int> System::wellCoveredTags(std::span<const int> X) const {
  return wellCoveredTags(X, {}, scratch_);
}

std::vector<int> System::wellCoveredTags(std::span<const int> X,
                                         std::span<const int> jamming) const {
  return wellCoveredTags(X, jamming, scratch_);
}

std::vector<int> System::wellCoveredTags(std::span<const int> X,
                                         std::span<const int> jamming,
                                         WeightScratch& scratch) const {
  if (well_covered_evals_ != nullptr) well_covered_evals_->add(1);
  std::vector<int> out;
  evalBitmap(X, jamming, scratch, &out);
  std::sort(out.begin(), out.end());
  return out;
}

int System::weight(std::span<const int> X) const {
  return weight(X, scratch_);
}

int System::weight(std::span<const int> X, WeightScratch& scratch) const {
  if (weight_evals_ != nullptr) weight_evals_->add(1);
  return evalBitmap(X, {}, scratch, nullptr);
}

int System::singleWeight(int v) const {
  int w = 0;
  for (const BitEntry& e : bitRow(v)) {
    w += std::popcount(e.bits & ~read_bits_[e.word]);
  }
  return w;
}

void System::coveringReaders(geom::Vec2 pos, std::vector<int>& out) {
  // One disk query at the maximum interrogation radius, then the per-reader
  // radius filter: the grid answers "who could possibly cover pos", the
  // filter answers "who does".
  out.clear();
  reader_index_->queryDisk(pos, max_gamma_, out);
  ++grid_queries_;
  std::size_t w = 0;
  for (const int v : out) {
    const Reader& r = readers_[static_cast<std::size_t>(v)];
    const double g = r.interrogation_radius;
    if (geom::dist2(pos, r.pos) <= g * g) out[w++] = v;
  }
  out.resize(w);
}

void System::covInsert(std::span<const int> readers, int t) {
  if (readers.empty()) return;
  // Multi-insert in one backward pass: find each row's insertion point
  // (rows are ascending in tag index), shift the tail segments right once.
  const std::size_t k = readers.size();
  const std::size_t old_size = cov_idx_.size();
  cov_idx_.resize(old_size + k);
  std::size_t read_end = old_size;            // exclusive end of unmoved data
  std::size_t write = cov_idx_.size();        // exclusive end of write window
  for (std::size_t i = k; i-- > 0;) {
    const int v = readers[i];
    const auto row_lo = cov_idx_.begin() + cov_off_[static_cast<std::size_t>(v)];
    const auto row_hi = cov_idx_.begin() + cov_off_[static_cast<std::size_t>(v) + 1];
    const std::size_t ins = static_cast<std::size_t>(
        std::lower_bound(row_lo, row_hi, t) - cov_idx_.begin());
    std::copy_backward(cov_idx_.begin() + static_cast<std::ptrdiff_t>(ins),
                       cov_idx_.begin() + static_cast<std::ptrdiff_t>(read_end),
                       cov_idx_.begin() + static_cast<std::ptrdiff_t>(write));
    write -= read_end - ins;
    cov_idx_[--write] = t;
    read_end = ins;
  }
  // Offset fixup: rows at or after reader v gained the insertions in rows
  // <= v.  One O(n + k) sweep (readers is ascending and duplicate-free).
  std::size_t ci = 0;
  int shift = 0;
  for (std::size_t v = 0; v < readers_.size(); ++v) {
    if (ci < k && readers[ci] == static_cast<int>(v)) {
      ++shift;
      ++ci;
    }
    cov_off_[v + 1] += shift;
  }
}

void System::covErase(std::span<const int> readers, int t) {
  if (readers.empty()) return;
  // Mirror of covInsert: one forward compaction pass over the tail.
  const std::size_t k = readers.size();
  std::size_t write = 0;
  std::size_t src = 0;
  bool first = true;
  for (const int v : readers) {
    const auto row_lo = cov_idx_.begin() + cov_off_[static_cast<std::size_t>(v)];
    const auto row_hi = cov_idx_.begin() + cov_off_[static_cast<std::size_t>(v) + 1];
    const auto it = std::lower_bound(row_lo, row_hi, t);
    assert(it != row_hi && *it == t && "cov row must contain the tag");
    const std::size_t pos = static_cast<std::size_t>(it - cov_idx_.begin());
    if (first) {
      write = pos;
      src = pos + 1;
      first = false;
      continue;
    }
    std::copy(cov_idx_.begin() + static_cast<std::ptrdiff_t>(src),
              cov_idx_.begin() + static_cast<std::ptrdiff_t>(pos),
              cov_idx_.begin() + static_cast<std::ptrdiff_t>(write));
    write += pos - src;
    src = pos + 1;
  }
  std::copy(cov_idx_.begin() + static_cast<std::ptrdiff_t>(src), cov_idx_.end(),
            cov_idx_.begin() + static_cast<std::ptrdiff_t>(write));
  cov_idx_.resize(cov_idx_.size() - k);
  std::size_t ci = 0;
  int shift = 0;
  for (std::size_t v = 0; v < readers_.size(); ++v) {
    if (ci < k && readers[ci] == static_cast<int>(v)) {
      ++shift;
      ++ci;
    }
    cov_off_[v + 1] -= shift;
  }
}

void System::covrReplace(int t, std::span<const int> readers) {
  const std::size_t lo = static_cast<std::size_t>(covr_off_[static_cast<std::size_t>(t)]);
  const std::size_t hi = static_cast<std::size_t>(covr_off_[static_cast<std::size_t>(t) + 1]);
  const std::ptrdiff_t delta =
      static_cast<std::ptrdiff_t>(readers.size()) - static_cast<std::ptrdiff_t>(hi - lo);
  if (delta > 0) {
    covr_idx_.insert(covr_idx_.begin() + static_cast<std::ptrdiff_t>(hi),
                     static_cast<std::size_t>(delta), 0);
  } else if (delta < 0) {
    covr_idx_.erase(covr_idx_.begin() + static_cast<std::ptrdiff_t>(hi) + delta,
                    covr_idx_.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  std::copy(readers.begin(), readers.end(),
            covr_idx_.begin() + static_cast<std::ptrdiff_t>(lo));
  if (delta != 0) {
    for (std::size_t u = static_cast<std::size_t>(t) + 1; u < covr_off_.size(); ++u) {
      covr_off_[u] += static_cast<int>(delta);
    }
  }
}

void System::bitmapInsert(std::span<const int> readers, int t) {
  if (readers.empty()) return;
  const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
  const std::uint32_t w = p >> 6;
  const std::uint64_t mask = std::uint64_t{1} << (p & 63);
  // Rows that already hold block `w` just OR the bit in; the rest need a
  // structural entry, batched into one backward shift (mirror of covInsert).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ins;  // (row, arena pos)
  for (const int v : readers) {
    const std::uint32_t r = row_of_[static_cast<std::size_t>(v)];
    const auto lo = bit_arena_.begin() + bit_off_[r];
    const auto hi = bit_arena_.begin() + bit_off_[r + 1];
    const auto it = std::lower_bound(
        lo, hi, w, [](const BitEntry& e, std::uint32_t word) { return e.word < word; });
    if (it != hi && it->word == w) {
      it->bits |= mask;
    } else {
      ins.emplace_back(r, static_cast<std::uint32_t>(it - bit_arena_.begin()));
    }
  }
  if (ins.empty()) return;
  std::sort(ins.begin(), ins.end());  // ascending row ⇒ ascending arena pos
  const std::size_t k = ins.size();
  const std::size_t old_size = bit_arena_.size();
  bit_arena_.resize(old_size + k);
  std::size_t read_end = old_size;
  std::size_t write = bit_arena_.size();
  for (std::size_t i = k; i-- > 0;) {
    const std::size_t pos = ins[i].second;
    std::copy_backward(bit_arena_.begin() + static_cast<std::ptrdiff_t>(pos),
                       bit_arena_.begin() + static_cast<std::ptrdiff_t>(read_end),
                       bit_arena_.begin() + static_cast<std::ptrdiff_t>(write));
    write -= read_end - pos;
    bit_arena_[--write] = BitEntry{w, 0, mask};
    read_end = pos;
  }
  std::size_t ci = 0;
  std::uint32_t shift = 0;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    if (ci < k && ins[ci].first == r) {
      ++shift;
      ++ci;
    }
    bit_off_[r + 1] += shift;
  }
}

void System::bitmapErase(std::span<const int> readers, int t) {
  if (readers.empty()) return;
  const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
  const std::uint32_t w = p >> 6;
  const std::uint64_t mask = std::uint64_t{1} << (p & 63);
  // Clear the bit everywhere first; entries that go to zero are erased in
  // one forward compaction (canonical form stores no zero words).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> del;  // (row, arena pos)
  for (const int v : readers) {
    const std::uint32_t r = row_of_[static_cast<std::size_t>(v)];
    const auto lo = bit_arena_.begin() + bit_off_[r];
    const auto hi = bit_arena_.begin() + bit_off_[r + 1];
    const auto it = std::lower_bound(
        lo, hi, w, [](const BitEntry& e, std::uint32_t word) { return e.word < word; });
    assert(it != hi && it->word == w && (it->bits & mask) != 0 &&
           "bitmap row must contain the tag's bit");
    it->bits &= ~mask;
    if (it->bits == 0) {
      del.emplace_back(r, static_cast<std::uint32_t>(it - bit_arena_.begin()));
    }
  }
  if (del.empty()) return;
  std::sort(del.begin(), del.end());
  const std::size_t k = del.size();
  std::size_t write = del[0].second;
  std::size_t src = del[0].second + 1;
  for (std::size_t i = 1; i < k; ++i) {
    const std::size_t pos = del[i].second;
    std::copy(bit_arena_.begin() + static_cast<std::ptrdiff_t>(src),
              bit_arena_.begin() + static_cast<std::ptrdiff_t>(pos),
              bit_arena_.begin() + static_cast<std::ptrdiff_t>(write));
    write += pos - src;
    src = pos + 1;
  }
  std::copy(bit_arena_.begin() + static_cast<std::ptrdiff_t>(src), bit_arena_.end(),
            bit_arena_.begin() + static_cast<std::ptrdiff_t>(write));
  bit_arena_.resize(bit_arena_.size() - k);
  std::size_t ci = 0;
  std::uint32_t shift = 0;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    if (ci < k && del[ci].first == r) {
      ++shift;
      ++ci;
    }
    bit_off_[r + 1] -= shift;
  }
}

void System::logDirty(std::span<const int> readers) {
  // Bounded window: once the log outgrows the cap, drop the whole window
  // and advance the base so every cursor behind it falls back to a full
  // cache rebuild — O(n) once, instead of an unbounded log.
  constexpr std::size_t kDirtyLogCap = 1 << 14;
  if (dirty_log_.size() + readers.size() > kDirtyLogCap) {
    invalidateDirtyLog();
  }
  dirty_log_.insert(dirty_log_.end(), readers.begin(), readers.end());
}

void System::invalidateDirtyLog() {
  dirty_base_ += static_cast<std::uint64_t>(dirty_log_.size()) + 1;
  dirty_log_.clear();
}

int System::addTag(Tag t) {
  const int idx = numTags();
  t.id = idx;
  tags_.push_back(t);
  read_.push_back(0);
  departed_.push_back(0);

  std::vector<int> cs;
  coveringReaders(t.pos, cs);
  // covr: the new tag's row is appended at the end of the flat array — the
  // new index is larger than every existing one.
  covr_idx_.insert(covr_idx_.end(), cs.begin(), cs.end());
  covr_off_.push_back(static_cast<int>(covr_idx_.size()));
  // cov: the new tag index is the largest, so each insertion point is the
  // row end; covInsert handles the general case anyway.
  covInsert(cs, idx);

  // Bitmap: churn-added tags take the next bit position past the Morton
  // range (locality only matters for the construction-time bulk).
  const auto p = static_cast<std::uint32_t>(tag_of_.size());
  bit_of_.push_back(p);
  tag_of_.push_back(idx);
  if ((p & 63u) == 0) {
    read_bits_.push_back(0);
    coverable_bits_.push_back(0);
  }
  bitmapInsert(cs, idx);
  if (!cs.empty()) coverable_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);

  logDirty(cs);
  ++structural_epoch_;
  return idx;
}

void System::removeTag(int t) {
  assert(t >= 0 && t < numTags());
  assert(!departed(t) && "removeTag on a tombstone");
  const std::span<const int> row = coverers(t);
  const std::vector<int> cs(row.begin(), row.end());
  covErase(cs, t);
  covrReplace(t, {});
  bitmapErase(cs, t);
  departed_[static_cast<std::size_t>(t)] = 1;
  // A departed tag must never be counted or served: render it passive the
  // same way a served tag is.  The read-state diff in the caches sees the
  // flip, finds an empty coverers row, and the dirty-log entries below
  // carry the exact correction.
  read_[static_cast<std::size_t>(t)] = 1;
  {
    const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
    coverable_bits_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
    read_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
  logDirty(cs);
  ++structural_epoch_;
}

void System::moveTag(int t, geom::Vec2 pos) {
  assert(t >= 0 && t < numTags());
  assert(!departed(t) && "moveTag on a tombstone");
  const std::span<const int> row = coverers(t);
  const std::vector<int> old_cs(row.begin(), row.end());
  std::vector<int> new_cs;
  coveringReaders(pos, new_cs);
  tags_[static_cast<std::size_t>(t)].pos = pos;
  if (new_cs != old_cs) {
    covErase(old_cs, t);
    covInsert(new_cs, t);
    covrReplace(t, new_cs);
    // The tag keeps its bit position — only which rows hold it changes.
    bitmapErase(old_cs, t);
    bitmapInsert(new_cs, t);
    const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
    if (new_cs.empty()) {
      coverable_bits_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
    } else {
      coverable_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
    logDirty(old_cs);
    logDirty(new_cs);
  }
  ++structural_epoch_;
}

std::uint64_t System::fingerprintArrays(std::span<const int> cov_off,
                                        std::span<const int> cov_idx,
                                        std::span<const int> covr_off,
                                        std::span<const int> covr_idx) {
  // FNV-1a over the four arrays' little-endian bytes, with a separator
  // byte between arrays so length boundaries cannot alias.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::span<const int> a) {
    for (const int x : a) {
      const auto u = static_cast<std::uint32_t>(x);
      for (int s = 0; s < 32; s += 8) {
        h ^= (u >> s) & 0xffu;
        h *= 1099511628211ull;
      }
    }
    h ^= 0xffu;
    h *= 1099511628211ull;
  };
  mix(cov_off);
  mix(cov_idx);
  mix(covr_off);
  mix(covr_idx);
  return h;
}

std::uint64_t System::indexFingerprint() const {
  return fingerprintArrays(cov_off_, cov_idx_, covr_off_, covr_idx_);
}

std::uint64_t System::fingerprintBitmap(std::span<const std::uint32_t> off,
                                        std::span<const BitEntry> arena,
                                        std::span<const std::uint32_t> row_of,
                                        std::span<const std::uint32_t> bit_of) {
  // Same FNV-1a scheme as fingerprintArrays; `pad` is skipped so only the
  // semantic bytes count.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix32 = [&h](std::uint32_t u) {
    for (int s = 0; s < 32; s += 8) {
      h ^= (u >> s) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto sep = [&h]() {
    h ^= 0xffu;
    h *= 1099511628211ull;
  };
  for (const std::uint32_t x : off) mix32(x);
  sep();
  for (const BitEntry& e : arena) {
    mix32(e.word);
    mix32(static_cast<std::uint32_t>(e.bits));
    mix32(static_cast<std::uint32_t>(e.bits >> 32));
  }
  sep();
  for (const std::uint32_t x : row_of) mix32(x);
  sep();
  for (const std::uint32_t x : bit_of) mix32(x);
  sep();
  return h;
}

std::uint64_t System::bitmapFingerprint() const {
  return fingerprintBitmap(bit_off_, bit_arena_, row_of_, bit_of_);
}

void System::rebuildIndex() {
  buildIndex();
  buildBitmap();
  invalidateDirtyLog();
}

void System::testOnlyCorruptIndex() {
  // Swap two differing covr entries: corrupts row contents while keeping
  // lengths and value ranges intact — exactly the shape of a missed delta.
  for (std::size_t i = 1; i < covr_idx_.size(); ++i) {
    if (covr_idx_[i] != covr_idx_[0]) {
      std::swap(covr_idx_[0], covr_idx_[i]);
      return;
    }
  }
  for (std::size_t i = 1; i < cov_idx_.size(); ++i) {
    if (cov_idx_[i] != cov_idx_[0]) {
      std::swap(cov_idx_[0], cov_idx_[i]);
      return;
    }
  }
}

void System::testOnlyCorruptBitmap() {
  // Flip one bit in the first arena entry: the CSR stays intact, so only a
  // bitmap-aware oracle (or the equivalence matrix) can notice.
  if (!bit_arena_.empty()) bit_arena_[0].bits ^= 1;
}

void System::attachMetrics(obs::MetricsRegistry* m) {
  metrics_ = m;
  if (m == nullptr) {
    weight_evals_ = nullptr;
    well_covered_evals_ = nullptr;
    return;
  }
  weight_evals_ = &m->counter("core.weight_evals");
  well_covered_evals_ = &m->counter("core.well_covered_evals");
  m->counter("core.grid_queries").add(grid_queries_);
}

}  // namespace rfid::core
