#include "check/index_oracle.h"

#include <algorithm>
#include <string>

namespace rfid::check {

IncrementalIndexOracle::IncrementalIndexOracle(IndexOracleOptions opt)
    : opt_(opt) {
  if (opt_.metrics != nullptr) {
    c_checks_ = &opt_.metrics->counter("check.index_checks");
    c_divergences_ = &opt_.metrics->counter("check.index_divergence");
    c_heals_ = &opt_.metrics->counter("check.index_heals");
  }
}

IncrementalIndexOracle::Expected IncrementalIndexOracle::expectedFingerprints(
    const core::System& sys) const {
  const int n = sys.numReaders();
  const int m = sys.numTags();
  // Both coverage directions from positions and radii alone — the oracle's
  // own bucket grid, sharing nothing with the incremental splices or the
  // spatial grid, so a bug in either cannot hide here.
  const GeometricCoverage geo = geometricCoverage(sys);
  Expected e;
  e.csr = core::System::fingerprintArrays(geo.covr_off, geo.covr_idx);

  // Expected bitmap: re-block the geometry reader rows under the System's
  // recorded SFC permutations.  Canonical form (non-zero words ascending)
  // matches System::buildIndex, so the fingerprints compare directly.
  std::vector<std::uint32_t> row_of(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> bit_of(static_cast<std::size_t>(sys.numTagBits()));
  for (int v = 0; v < n; ++v) row_of[static_cast<std::size_t>(v)] = sys.readerRow(v);
  for (int t = 0; t < m; ++t) bit_of[static_cast<std::size_t>(t)] = sys.tagBit(t);
  std::vector<std::uint32_t> off(static_cast<std::size_t>(n) + 1, 0);
  std::vector<core::BitEntry> arena;
  arena.reserve(geo.cov_idx.size());
  std::vector<std::uint32_t> bits;
  for (int r = 0; r < n; ++r) {
    const int v = sys.rowReader(static_cast<std::uint32_t>(r));
    bits.clear();
    for (const int t : geo.coveredTags(v)) {
      bits.push_back(bit_of[static_cast<std::size_t>(t)]);
    }
    std::sort(bits.begin(), bits.end());
    for (const std::uint32_t p : bits) {
      const std::uint32_t w = p >> 6;
      if (arena.size() > off[static_cast<std::size_t>(r)] && arena.back().word == w) {
        arena.back().bits |= std::uint64_t{1} << (p & 63);
      } else {
        arena.push_back({w, 0, std::uint64_t{1} << (p & 63)});
      }
    }
    off[static_cast<std::size_t>(r) + 1] = static_cast<std::uint32_t>(arena.size());
  }
  e.bitmap = core::System::fingerprintBitmap(off, arena, row_of, bit_of);
  return e;
}

IndexVerdict IncrementalIndexOracle::checkSlot(core::System& sys, int slot) {
  if (!opt_.paranoid) {
    if (opt_.every_epochs <= 0) return IndexVerdict::kSkipped;
    const std::uint64_t delta = sys.structuralEpoch() - verified_epoch_;
    if (delta < static_cast<std::uint64_t>(opt_.every_epochs)) {
      return IndexVerdict::kSkipped;
    }
  }
  return verify(sys, slot);
}

IndexVerdict IncrementalIndexOracle::verify(core::System& sys, int slot) {
  ++checks_;
  if (c_checks_ != nullptr) c_checks_->add(1);
  const Expected expected = expectedFingerprints(sys);
  const std::uint64_t live_csr = sys.indexFingerprint();
  const std::uint64_t live_bitmap = sys.bitmapFingerprint();
  if (live_csr == expected.csr && live_bitmap == expected.bitmap) {
    verified_epoch_ = sys.structuralEpoch();
    return IndexVerdict::kOk;
  }
  // Divergence: the incremental path produced an index raw geometry
  // disagrees with.  Fail it closed — from here on every call verifies.
  ++divergences_;
  if (c_divergences_ != nullptr) c_divergences_->add(1);
  opt_.paranoid = true;
  const char* which = live_csr != expected.csr
                          ? (live_bitmap != expected.bitmap
                                 ? "incremental CSR+bitmap index fingerprints "
                                 : "incremental CSR index fingerprint ")
                          : "bitmap index fingerprint ";
  issues_.push_back(
      {slot, "index.divergence",
       std::string(which) + std::to_string(live_csr) + "/" +
           std::to_string(live_bitmap) + " != geometry rebuild " +
           std::to_string(expected.csr) + "/" + std::to_string(expected.bitmap) +
           " at epoch " + std::to_string(sys.structuralEpoch())});
  if (opt_.trace != nullptr) {
    opt_.trace->instant(obs::EventKind::kFault, "check.index_divergence",
                        {{"slot", static_cast<double>(slot)},
                         {"epoch", static_cast<double>(sys.structuralEpoch())}});
  }
  if (!opt_.self_heal) return IndexVerdict::kCorrupt;
  sys.rebuildIndex();
  if (sys.indexFingerprint() == expected.csr &&
      sys.bitmapFingerprint() == expected.bitmap) {
    ++heals_;
    if (c_heals_ != nullptr) c_heals_->add(1);
    verified_epoch_ = sys.structuralEpoch();
    if (opt_.trace != nullptr) {
      opt_.trace->instant(obs::EventKind::kFault, "check.index_heal",
                          {{"slot", static_cast<double>(slot)}});
    }
    return IndexVerdict::kHealed;
  }
  // Even a from-scratch rebuild disagrees with the geometry rebuild: the two
  // geometry readings themselves are inconsistent.  Nothing to heal with.
  issues_.push_back({slot, "index.heal-failed",
                     "rebuilt index still disagrees with the geometry scan"});
  return IndexVerdict::kCorrupt;
}

}  // namespace rfid::check
