#include "check/index_oracle.h"

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
  // Both coverage directions from positions and radii alone — the oracle's
  // own bucket grid, sharing nothing with the incremental splices or the
  // spatial grid, so a bug in either cannot hide here.  The audit stops at
  // the first disagreeing row and keeps its detail.
  const GeometricCoverage geo = geometricCoverage(sys);
  std::string first;
  const auto keepFirst = [&first](IndexRow, const std::string& detail) {
    first = detail;
    return false;
  };
  if (auditCoverageIndex(sys, geo, keepFirst)) {
    verified_epoch_ = sys.structuralEpoch();
    return IndexVerdict::kOk;
  }
  // Divergence: the incremental path produced an index raw geometry
  // disagrees with.  Fail it closed — from here on every call verifies.
  ++divergences_;
  if (c_divergences_ != nullptr) c_divergences_->add(1);
  opt_.paranoid = true;
  issues_.push_back({slot, "index.divergence",
                     first + " at epoch " +
                         std::to_string(sys.structuralEpoch())});
  if (opt_.trace != nullptr) {
    opt_.trace->instant(obs::EventKind::kFault, "check.index_divergence",
                        {{"slot", static_cast<double>(slot)},
                         {"epoch", static_cast<double>(sys.structuralEpoch())}});
  }
  if (!opt_.self_heal) return IndexVerdict::kCorrupt;
  sys.rebuildIndex();
  if (auditCoverageIndex(sys, geo, keepFirst)) {
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
                     "rebuilt index still disagrees with the geometry scan: " +
                         first});
  return IndexVerdict::kCorrupt;
}

}  // namespace rfid::check
