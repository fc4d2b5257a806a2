// system.h — the multi-reader RFID system model (paper §II–III).
//
// A System owns the static deployment (readers, tags, precomputed coverage
// index) plus the one piece of mutable state the MCS loop needs: which tags
// have already been served.  Everything the schedulers consume — coverage,
// independence, weights, well-covered semantics — is defined here so that
// every algorithm (PTAS, growth-bounded, distributed, Colorwave, GHC) is
// scored by the exact same referee.
//
// Coverage is indexed once per direction.  Reader → tags lives in blocked
// bitmap rows, which the popcount referee sweeps and coveredTags() decodes.
// Tag → covering readers is a CSR index (offsets + one flat index array);
// it is what lets the lazy-greedy machinery (core/weight.h) dirty-mark
// exactly the readers whose marginal weight a commit or a served tag
// actually changed (docs/performance.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/reader.h"
#include "core/tag.h"
#include "geometry/spatial_grid.h"
#include "obs/metrics.h"

namespace rfid::core {

/// One blocked-bitmap row element: 64 tag-bit slots starting at bit
/// position `word * 64`.  Rows store only non-zero words, ascending by
/// `word`, all rows back to back in one arena (core::System below).
struct BitEntry {
  std::uint32_t word = 0;   // tag-bit block index (bit positions word*64 ..)
  std::uint32_t pad = 0;    // keeps the arena element 16-byte, one load/entry
  std::uint64_t bits = 0;   // never zero for a stored entry (canonical form)
};

/// Reusable per-thread buffers for weight evaluation.  The scratch-taking
/// System overloads are safe to call concurrently, one scratch per thread
/// (the parallel PTAS shifts do exactly that); the scratch-less overloads
/// fall back to one internal buffer and stay single-threaded.
/// Zero-initialized by System::initScratch and restored to zero after every
/// evaluation, so one scratch serves any number of sequential calls.
struct WeightScratch {
  std::vector<char> victim;  // per-reader RTc victim flag within X
  // Word-indexed by tag bit block: exactly-one counting accumulates
  // `once`/`twice` over the active rows, `touched` remembers which words to
  // zero afterwards, `marked` which victim flags, and `qbuf` backs the
  // reader-grid victim queries.
  std::vector<std::uint64_t> once;
  std::vector<std::uint64_t> twice;
  std::vector<int> touched;
  std::vector<int> marked;
  std::vector<int> qbuf;
  // Per-reader channel of the members of a channeled X, written before each
  // channeled victim pass (other entries are never read).  Sized on the
  // first channeled evaluation, so the single-channel path never holds it.
  std::vector<int> channel;
};

/// The deployment plus the tag read-state.
///
/// Thread-safety: const member functions are safe to call concurrently
/// *except* the scratch-less weight()/wellCoveredTags() overloads, which
/// share an internal scratch buffer (documented on the members).  Parallel
/// evaluation passes an explicit WeightScratch per thread instead.
class System {
 public:
  /// Builds the system and precomputes coverage both ways (reader → tags as
  /// bitmap rows, tag → covering readers as CSR).  Reader/tag `id` fields
  /// are rewritten to their indices to keep identity unambiguous.
  System(std::vector<Reader> readers, std::vector<Tag> tags);

  int numReaders() const { return static_cast<int>(readers_.size()); }
  int numTags() const { return static_cast<int>(tags_.size()); }
  const Reader& reader(int i) const { return readers_[static_cast<std::size_t>(i)]; }
  const Tag& tag(int i) const { return tags_[static_cast<std::size_t>(i)]; }
  std::span<const Reader> readers() const { return readers_; }
  std::span<const Tag> tags() const { return tags_; }

  /// Replaces `out` with the tag indices inside reader `v`'s interrogation
  /// disk, ascending: v's bitmap row decoded through bitTag, then sorted.
  /// Uses no shared scratch, so concurrent calls are safe.
  void coveredTags(int v, std::vector<int>& out) const;
  /// Reader indices whose interrogation disk contains tag `t`, ascending
  /// (the inverted coverage index).
  std::span<const int> coverers(int t) const {
    const auto lo = static_cast<std::size_t>(covr_off_[static_cast<std::size_t>(t)]);
    const auto hi = static_cast<std::size_t>(covr_off_[static_cast<std::size_t>(t) + 1]);
    return {covr_idx_.data() + lo, hi - lo};
  }

  /// A process-unique id minted at construction (copies share it — they are
  /// the same deployment).  Schedulers use it to key caches derived from
  /// the static coverage structure (components, standalone-weight caches)
  /// without risking address-reuse aliasing across Systems.
  std::uint64_t instanceId() const { return instance_id_; }

  /// Definition 2 independence: ‖v_i − v_j‖ > max(R_i, R_j).
  bool independent(int i, int j) const {
    return core::independent(reader(i), reader(j));
  }

  /// True iff `X` is a feasible scheduling set (pairwise independent).
  /// O(|X|²); scheduling sets are small (bounded by the packing number).
  bool isFeasible(std::span<const int> X) const;

  // ---- read-state (MCS loop renders served tags passive) ----

  bool isRead(int t) const {
    const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
    return ((read_bits_[p >> 6] >> (p & 63)) & 1) != 0;
  }
  void markRead(int t) {
    const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
    read_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
  void markRead(std::span<const int> tags);
  /// Re-arms a tag (undoing experiment state).  Tag arrivals go through
  /// addTag instead (the streaming driver, sched/streaming.h).
  void markUnread(int t) {
    const std::uint32_t p = bit_of_[static_cast<std::size_t>(t)];
    read_bits_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  }
  /// Forgets all reads; used between independent experiments on one System.
  void resetReads();
  /// Number of unread tags (coverable or not).
  int unreadCount() const;
  /// Number of unread tags covered by at least one reader — the MCS loop
  /// terminates exactly when this reaches zero.
  int unreadCoverableCount() const;

  // ---- well-covered semantics (Definition 1) ----

  /// Tags well-covered when exactly the readers in `X` are active.  Valid
  /// for *arbitrary* X, feasible or not: a reader lying inside another
  /// radiator's interference disk is an RTc victim and reads nothing, and a
  /// tag covered by more than one radiator is lost to RRc.  Only unread
  /// tags are reported, ascending.  Uses the internal scratch buffer (not
  /// thread-safe across concurrent calls on one System).
  ///
  /// `jamming` (disjoint from X) are loud-failed crashes (fault::FaultPlan):
  /// they radiate — RRc multiplicity and RTc victimization exactly like an
  /// active reader — but read nothing.
  ///
  /// `channel` empty is the paper's single-channel model; otherwise
  /// channel[i] is X[i]'s channel (§VII: Gen2 dense-reading mode, the
  /// k-coloring heuristic of [13]).  Then RTc strikes only between readers
  /// on the same channel, while RRc stays channel-blind — a passive tag
  /// cannot separate the signals it backscatters — and a jammer victimizes
  /// every reader inside its interference disk whatever its channel.  A
  /// channeled X is feasible when its same-channel pairs are independent
  /// (its interference subgraph is properly colored); one channel reduces
  /// exactly to Definition 2.
  std::vector<int> wellCoveredTags(std::span<const int> X,
                                   std::span<const int> jamming = {},
                                   std::span<const int> channel = {}) const;

  /// wellCoveredTags with caller-owned scratch: thread-safe with one
  /// scratch per thread.  `scratch` must come from initScratch().
  std::vector<int> wellCoveredTags(std::span<const int> X,
                                   std::span<const int> jamming,
                                   std::span<const int> channel,
                                   WeightScratch& scratch) const;

  /// The RTc victims of the `jamming` readers alone, one flag per reader:
  /// the readers inside some jammer's interference disk (a jammer is not
  /// its own victim), whatever their channel.  Same scratch-buffer caveat.
  std::vector<char> victimsOf(std::span<const int> jamming) const;

  /// w(X) of Definition 3: |wellCoveredTags(X)| without materializing the
  /// list.  Same scratch-buffer caveat.
  int weight(std::span<const int> X) const;

  /// weight with caller-owned scratch: thread-safe with one scratch per
  /// thread.  `scratch` must come from initScratch().
  int weight(std::span<const int> X, WeightScratch& scratch) const;

  /// Sizes (and zero-fills) a scratch for use with this System.
  void initScratch(WeightScratch& scratch) const;

  /// w({v}): unread tags in v's interrogation disk (activating v alone
  /// well-covers all of them).  Thread-safe.
  int singleWeight(int v) const;

  // ---- structural churn (streaming mode, docs/streaming.md) ----
  //
  // Tags arrive, move, and depart while readers stay fixed.  Each mutation
  // patches the coverers CSR and the bitmap rows in place, bumps the
  // structural epoch, and appends the affected reader rows to a bounded
  // dirty-reader log so the scheduler-side caches (core/weight.h) can absorb
  // churn through the same diff mechanism they already use for read-state
  // changes across slots.
  // None of these are thread-safe; call them only between schedule() calls
  // (the streaming driver does exactly that).

  /// Appends a new tag (position + EPC; `id` is rewritten to the new index)
  /// and splices it into both coverage directions.  Returns the tag's index.
  /// Indices of existing tags never change; departed slots are not reused.
  int addTag(Tag t);

  /// Removes tag `t` from the field: its coverage entries are spliced out
  /// (its coverers row becomes empty), it is marked read, and the index
  /// becomes a tombstone (`departed`).  Safe on read tags; must not be
  /// repeated.
  void removeTag(int t);

  /// Moves tag `t` to `pos`, rewriting its coverage in both directions.
  /// The read-state is untouched: an unread tag stays unread at the new
  /// position.  Must not be called on a departed tag.
  void moveTag(int t, geom::Vec2 pos);

  /// True once removeTag(t) has run: the index is a tombstone with no
  /// coverage that must never be counted or served again.
  bool departed(int t) const { return departed_[static_cast<std::size_t>(t)] != 0; }

  /// Monotone counter bumped by every structural mutation (add/remove/move).
  /// Cache layers key on (instanceId, structuralEpoch) — instanceId alone
  /// stays constant across in-place mutation.
  std::uint64_t structuralEpoch() const { return structural_epoch_; }

  // ---- bitmap coverage index (the popcount weight referee) ----
  //
  // The reader → tags direction is a blocked per-reader coverage bitmap:
  // tag t occupies bit position tagBit(t) (Morton rank of its position, so
  // one disk's tags cluster into few words; churn-added tags append at the
  // tail), and reader v's row — the non-zero 64-bit words of its coverage
  // set — sits at arena rows readerRow(v), rows themselves in Morton order
  // of the reader positions.  weight(), wellCoveredTags(), singleWeight(),
  // unreadCoverableCount() and coveredTags() run over this index; the tests
  // hold the referee to a coverers walk (tests/reference_paths.h), and the
  // incremental-index oracle verifies the bitmap against geometry exactly
  // like the coverers CSR (docs/performance.md).

  /// Tag t's bit position in the coverage bitmaps (Morton rank at
  /// construction; tags added later append past the construction range).
  std::uint32_t tagBit(int t) const { return bit_of_[static_cast<std::size_t>(t)]; }
  /// Inverse of tagBit: the tag occupying bit position `p`.
  int bitTag(std::uint32_t p) const { return tag_of_[static_cast<std::size_t>(p)]; }
  /// Reader v's row slot in the bitmap arena (Morton rank of its position).
  std::uint32_t readerRow(int v) const { return row_of_[static_cast<std::size_t>(v)]; }
  /// Inverse of readerRow.
  int rowReader(std::uint32_t r) const { return reader_of_[static_cast<std::size_t>(r)]; }
  /// Reader v's bitmap row: non-zero words ascending by block index.
  std::span<const BitEntry> bitRow(int v) const {
    const std::uint32_t r = row_of_[static_cast<std::size_t>(v)];
    return {bit_arena_.data() + bit_off_[r], bit_off_[r + 1] - bit_off_[r]};
  }
  /// Number of allocated tag bit positions (== numTags(); grows with addTag).
  std::uint32_t numTagBits() const { return static_cast<std::uint32_t>(tag_of_.size()); }
  /// Read-state bitmap, one bit per tag bit position (see tagBit); bit set
  /// means the tag is read or departed.  Lets caches diff read-state
  /// word-parallel instead of polling isRead() per tag.
  std::span<const std::uint64_t> readBits() const { return read_bits_; }

  /// Rebuilds both coverage directions from raw geometry (skipping departed
  /// tags), discarding whatever the incremental path had accumulated — the
  /// self-heal step after the oracle flags a divergence.  Invalidates every
  /// dirty-log cursor, so caches do a full rebuild at their next sync.
  void rebuildIndex();

  // The dirty-reader log: every mutation appends the reader rows it
  // touched.  A cache remembers dirtyLogEnd() at each sync and processes
  // dirtyLogFrom(cursor) next time; a cursor behind dirtyLogBase() means
  // the window was compacted (or the index rebuilt) and the cache must do
  // a full rebuild.  Entries may repeat; consumers de-duplicate.
  std::uint64_t dirtyLogBase() const { return dirty_base_; }
  std::uint64_t dirtyLogEnd() const {
    return dirty_base_ + static_cast<std::uint64_t>(dirty_log_.size());
  }
  /// Valid only for dirtyLogBase() <= cursor <= dirtyLogEnd().
  std::span<const int> dirtyLogFrom(std::uint64_t cursor) const {
    const auto skip = static_cast<std::size_t>(cursor - dirty_base_);
    return {dirty_log_.data() + skip, dirty_log_.size() - skip};
  }

  /// Test hook: silently corrupts one coverers entry (no epoch bump, no
  /// dirty log) to simulate an incremental-update bug for the oracle tests.
  void testOnlyCorruptIndex();

  /// Test hook: flips one bit in the bitmap arena (coverers untouched) to
  /// simulate a bitmap/CSR desync for the oracle and validator tests.
  void testOnlyCorruptBitmap();

  // ---- observability ----

  /// Attaches a metrics registry (nullptr detaches).  Flushes the
  /// construction-time spatial-grid query count (`core.grid_queries`) once
  /// per attach and from then on counts every referee evaluation:
  /// `core.weight_evals` (weight()) and `core.well_covered_evals`
  /// (wellCoveredTags()).  Counter handles are cached here, so the hot
  /// paths pay one pointer test when detached.  Counters are atomic, so
  /// parallel scratch-taking evaluations bill exact totals.
  void attachMetrics(obs::MetricsRegistry* m);
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  /// From-scratch construction of the coverers CSR, the bitmap rows and
  /// the coverable bits (constructor and rebuildIndex); skips departed
  /// tags.  `assign_sfc` (constructor only) assigns the SFC permutations
  /// before the bitmap rows are filled; rebuilds keep the existing ones.
  void buildIndex(bool assign_sfc);
  /// Fails closed (std::length_error with sizing math) when the coverage
  /// index would overflow the 32-bit arena offsets.
  void checkIndexCapacity() const;
  /// Assigns the SFC permutations (constructor only — bit positions and row
  /// slots stay stable across mutations and rebuilds so caches and the
  /// oracle all speak one layout).
  void assignSfcOrder();
  /// Splices tag `t`'s bit into / out of the bitmap rows of `readers`.
  void bitmapInsert(std::span<const int> readers, int t);
  void bitmapErase(std::span<const int> readers, int t);
  /// Referee kernels (weight / wellCoveredTags); `out` nullptr means count
  /// only.  Exactly-one counting over once/twice accumulators; victims
  /// marked from the interference rows, or by reader-grid queries past the
  /// rows' build cap.
  int evalBitmap(std::span<const int> X, std::span<const int> jamming,
                 std::span<const int> channel, WeightScratch& scratch,
                 std::vector<int>* out) const;
  void markVictims(std::span<const int> X, std::span<const int> jamming,
                   std::span<const int> channel, WeightScratch& scratch) const;
  /// Materializes the directed interference rows (constructor only).
  void buildInterferenceRows();
  /// Readers covering position `pos`, ascending (reader grid query).
  void coveringReaders(geom::Vec2 pos, std::vector<int>& out);
  /// Replaces covr row `t` with `readers` (ascending).
  void covrReplace(int t, std::span<const int> readers);
  void logDirty(std::span<const int> readers);
  /// Forces every dirty-log cursor behind the window (full cache rebuild).
  void invalidateDirtyLog();

  std::vector<Reader> readers_;
  std::vector<Tag> tags_;
  // Coverers CSR.  Offsets have one trailing entry, so row t is
  // covr_idx_[covr_off_[t] .. covr_off_[t+1]).
  std::vector<int> covr_off_;  // size numTags()+1
  std::vector<int> covr_idx_;  // tag → readers, ascending per tag
  // Bitmap coverage index: one arena of non-zero words, rows in Morton
  // reader order (bit_off_ has one trailing entry per the CSR convention),
  // plus the two SFC permutations and the word-parallel read / coverable
  // state the popcount kernels AND against.
  std::vector<BitEntry> bit_arena_;
  std::vector<std::uint32_t> bit_off_;        // size numReaders()+1, by row
  std::vector<std::uint32_t> row_of_;         // reader → arena row
  std::vector<int> reader_of_;                // arena row → reader
  std::vector<std::uint32_t> bit_of_;         // tag → bit position
  std::vector<int> tag_of_;                   // bit position → tag
  std::vector<std::uint64_t> read_bits_;      // read-state, word per block
  std::vector<std::uint64_t> coverable_bits_; // ≥1 coverer, word per block
  // Structural-churn state.
  std::vector<char> departed_;       // tombstones (removeTag)
  std::uint64_t structural_epoch_ = 0;
  std::vector<int> dirty_log_;       // reader rows touched by mutations
  std::uint64_t dirty_base_ = 0;     // log-sequence number of dirty_log_[0]
  double max_gamma_ = 1.0;           // cell size for the reader grid
  // Grid over reader positions (readers are static), built by the
  // constructor: the victim pass and every addTag/moveTag coverer query
  // read it.  Immutable and self-contained, so copies of the System share it.
  std::shared_ptr<const geom::SpatialGrid> reader_index_;
  // Directed interference rows: intf_idx_[intf_off_[v] .. intf_off_[v+1])
  // lists the readers u != v inside v's interference disk, ascending — the
  // victims v creates when it radiates.  Readers are static, so the rows
  // never need maintenance; on adversarially dense deployments (total past
  // the build cap) the offsets stay empty and the victim pass falls back
  // to per-radiator grid queries.
  std::vector<int> intf_off_;
  std::vector<int> intf_idx_;
  // Internal scratch backing the scratch-less evaluation overloads.
  mutable WeightScratch scratch_;
  std::uint64_t instance_id_ = 0;
  // Observability (cached handles; counter bumps through a const System are
  // metric mutations, not model mutations).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* weight_evals_ = nullptr;
  obs::Counter* well_covered_evals_ = nullptr;
  std::int64_t grid_queries_ = 0;  // spatial-grid disk queries at build time
};

}  // namespace rfid::core
