#include "check/invariants.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "check/bucket_grid.h"
#include "fault/fault_plan.h"
#include "geometry/vec2.h"
#include "obs/timer.h"

namespace rfid::check {

namespace {

/// Geometric interrogation coverage, same inclusive boundary as the
/// spatial-grid build (dist² <= γ²).
bool coversGeom(const core::Reader& r, const core::Tag& t) {
  return geom::dist2(r.pos, t.pos) <=
         r.interrogation_radius * r.interrogation_radius;
}

/// RTc victimization: `u` inside radiator `j`'s interference disk
/// (inclusive boundary, matching the referee).
bool victimizes(const core::Reader& j, const core::Reader& u) {
  return geom::dist2(u.pos, j.pos) <=
         j.interference_radius * j.interference_radius;
}

std::string joinInts(std::span<const int> xs, std::size_t cap = 8) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < xs.size() && i < cap; ++i) {
    if (i > 0) os << ",";
    os << xs[i];
  }
  if (xs.size() > cap) os << ",…(" << xs.size() << ")";
  os << "]";
  return os.str();
}

/// True when `row` is the canonical blocking of `tags` under sys.tagBit:
/// one entry per non-zero 64-bit word of their bits, ascending.  `bits` is
/// scratch.
bool isBlocking(std::span<const core::BitEntry> row, const core::System& sys,
                std::span<const int> tags, std::vector<std::uint32_t>& bits) {
  bits.clear();
  for (const int t : tags) bits.push_back(sys.tagBit(t));
  std::sort(bits.begin(), bits.end());
  std::size_t k = 0;
  for (std::size_t i = 0; i < bits.size(); ++k) {
    const std::uint32_t w = bits[i] >> 6;
    std::uint64_t word = 0;
    for (; i < bits.size() && bits[i] >> 6 == w; ++i) {
      word |= std::uint64_t{1} << (bits[i] & 63);
    }
    if (k == row.size() || row[k].word != w || row[k].bits != word) {
      return false;
    }
  }
  return k == row.size();
}

/// `readers` bucketed by position in cells as wide as their largest
/// interference radius, so one query at `reach` finds every reader that can
/// conflict with a given one: both Definition 2 and RTc are bounded by R.
struct ReaderGrid {
  double reach = 0.0;
  BucketGrid grid;
};

ReaderGrid readerGrid(const core::System& sys, std::span<const int> readers) {
  double reach = 0.0;
  for (const int v : readers) {
    reach = std::max(reach, sys.reader(v).interference_radius);
  }
  return {reach, BucketGrid(
                     readers.size(),
                     [&](std::size_t i) { return sys.reader(readers[i]).pos; },
                     reach)};
}

/// One slot's radiators as per-reader marks for the exactly-one walk.  The
/// first `live_chan.size()` entries of `rad` are live readers on those
/// channels; the rest jam.  A live reader is an RTc victim when another
/// radiator's interference disk holds it and that radiator shares its
/// channel or jams (a stuck transmitter is channel-blind).
struct RadiatorMarks {
  std::vector<int> count;    // reader → multiplicity among the radiators
  std::vector<int> live_at;  // reader → first index among the live, or -1
  std::vector<char> victim;  // live index → RTc victim

  /// Definition 1 for one tag: exactly one radiator covers it (RRc counts
  /// victims and jammers too), and that one is a live non-victim.
  bool serves(std::span<const int> coverers) const {
    int mult = 0;
    int only = -1;
    for (const int v : coverers) {
      const int c = count[static_cast<std::size_t>(v)];
      if (c != 0) {
        mult += c;
        only = v;
      }
    }
    if (mult != 1) return false;
    const int i = live_at[static_cast<std::size_t>(only)];
    return i >= 0 && victim[static_cast<std::size_t>(i)] == 0;
  }
};

RadiatorMarks radiatorMarks(const core::System& sys, std::span<const int> rad,
                            std::span<const int> live_chan) {
  const auto n = static_cast<std::size_t>(sys.numReaders());
  const std::size_t live = live_chan.size();
  RadiatorMarks k;
  k.count.assign(n, 0);
  k.live_at.assign(n, -1);
  k.victim.assign(live, 0);
  for (const int v : rad) ++k.count[static_cast<std::size_t>(v)];
  for (std::size_t i = live; i-- > 0;) {
    k.live_at[static_cast<std::size_t>(rad[i])] = static_cast<int>(i);
  }
  const ReaderGrid g = readerGrid(sys, rad);
  for (std::size_t i = 0; i < live; ++i) {
    const core::Reader& u = sys.reader(rad[i]);
    g.grid.forEachNear(u.pos, g.reach, [&](std::size_t j) {
      if (j != i && (j >= live || live_chan[j] == live_chan[i]) &&
          victimizes(sys.reader(rad[j]), u)) {
        k.victim[i] = 1;
      }
    });
  }
  return k;
}

}  // namespace

GeometricCoverage geometricCoverage(const core::System& sys) {
  const auto n = static_cast<std::size_t>(sys.numReaders());
  const auto m = static_cast<std::size_t>(sys.numTags());
  // Tags bucketed in cells at least as wide as the largest interrogation
  // radius: the tags a reader covers sit in the cells its own γ box
  // overlaps, and the exact inclusive test picks them out.  The box reaches
  // |γ|, as far as dist² <= γ² accepts a tag whatever γ's sign.  Reader
  // rows come out first, one query each; the grid is gone before the tag
  // rows are allocated.
  double reach = 0.0;
  for (const core::Reader& r : sys.readers()) {
    reach = std::max(reach, r.interrogation_radius);
  }
  GeometricCoverage g;
  g.cov_off.assign(n + 1, 0);
  {
    const BucketGrid grid(
        m, [&](std::size_t t) { return sys.tag(static_cast<int>(t)).pos; },
        reach);
    for (std::size_t v = 0; v < n; ++v) {
      const core::Reader& r = sys.reader(static_cast<int>(v));
      const std::size_t first = g.cov_idx.size();
      grid.forEachNear(r.pos, std::abs(r.interrogation_radius),
                       [&](std::size_t t) {
                         const int ti = static_cast<int>(t);
                         if (!sys.departed(ti) && coversGeom(r, sys.tag(ti))) {
                           g.cov_idx.push_back(ti);
                         }
                       });
      std::sort(g.cov_idx.begin() + static_cast<std::ptrdiff_t>(first),
                g.cov_idx.end());
      g.cov_off[v + 1] = static_cast<int>(g.cov_idx.size());
    }
  }
  // Transpose, with covr_off as its own cursor: it counts each tag's row,
  // then holds the row's end, and filling the rows backwards (readers
  // descending) leaves it at each row's start with the readers ascending.
  g.covr_off.assign(m + 1, 0);
  for (const int t : g.cov_idx) ++g.covr_off[static_cast<std::size_t>(t)];
  for (std::size_t t = 1; t <= m; ++t) g.covr_off[t] += g.covr_off[t - 1];
  g.covr_idx.resize(g.cov_idx.size());
  for (std::size_t v = n; v-- > 0;) {
    for (const int t : g.coveredTags(static_cast<int>(v))) {
      int& at = g.covr_off[static_cast<std::size_t>(t)];
      g.covr_idx[static_cast<std::size_t>(--at)] = static_cast<int>(v);
    }
  }
  return g;
}

bool auditCoverageIndex(
    const core::System& sys, const GeometricCoverage& geo,
    const std::function<bool(IndexRow, const std::string& detail)>& sink) {
  bool clean = true;
  std::vector<int> decoded;
  std::vector<std::uint32_t> bits;
  for (int v = 0; v < sys.numReaders(); ++v) {
    const std::span<const int> expect = geo.coveredTags(v);
    sys.coveredTags(v, decoded);
    std::string detail;
    if (!std::equal(expect.begin(), expect.end(), decoded.begin(),
                    decoded.end())) {
      detail = "geometric coverage " + joinInts(expect) +
               " != System::coveredTags " + joinInts(decoded);
    } else if (!isBlocking(sys.bitRow(v), sys, expect, bits)) {
      detail = "System::bitRow (" + std::to_string(sys.bitRow(v).size()) +
               " words) is not the blocking of geometric coverage " +
               joinInts(expect);
    } else {
      continue;
    }
    clean = false;
    if (!sink(IndexRow::kReader,
              "reader " + std::to_string(v) + ": " + detail)) {
      return false;
    }
  }
  for (int t = 0; t < sys.numTags(); ++t) {
    const std::span<const int> expect = geo.coverers(t);
    const std::span<const int> got = sys.coverers(t);
    if (std::equal(expect.begin(), expect.end(), got.begin(), got.end())) {
      continue;
    }
    clean = false;
    if (!sink(IndexRow::kTag, "tag " + std::to_string(t) +
                                  ": geometric coverers " + joinInts(expect) +
                                  " != System::coverers " + joinInts(got))) {
      return false;
    }
  }
  return clean;
}

ScheduleValidator::ScheduleValidator(CheckOptions opt) : opt_(std::move(opt)) {}

void ScheduleValidator::flag(int slot, std::string invariant,
                             std::string detail) {
  ++violations_;
  if (c_violations_ != nullptr) c_violations_->add(1);
  if (opt_.trace != nullptr) {
    opt_.trace->instant(obs::EventKind::kCheck, "check.violation",
                        {{"slot", static_cast<double>(slot)}});
  }
  if (static_cast<int>(issues_.size()) < opt_.max_issues) {
    issues_.push_back({slot, std::move(invariant), std::move(detail)});
  }
}

int ScheduleValidator::shadowCoverableCount() const {
  int n = 0;
  for (std::size_t t = 0; t < shadow_.size(); ++t) {
    if (shadow_[t] == 0 && !geo_.coverers(static_cast<int>(t)).empty()) ++n;
  }
  return n;
}

bool ScheduleValidator::allOrphaned(const core::System& sys, int slot) const {
  // Mirror of the driver's orphan predicate (sched/mcs.cpp countOrphans),
  // recomputed from geometry: a tag is unservable forever when
  //   1. it sits in a permanently-loud reader's interrogation disk (its
  //      multiplicity is >= 2, or its only coverer reads nothing, in every
  //      future slot); otherwise
  //   2. every geometric coverer is permanently dead or permanently
  //      victimized by a loud-dead reader's stuck transmitter.
  // The loud-dead readers are collected once, and a grid over them finds
  // the readers they jam forever.
  const fault::FaultPlan& plan = *opt_.faults;
  const auto n = static_cast<std::size_t>(sys.numReaders());
  std::vector<char> dead(n, 0);
  std::vector<char> loud_dead(n, 0);
  std::vector<int> loud;
  for (std::size_t j = 0; j < n; ++j) {
    const int v = static_cast<int>(j);
    dead[j] = plan.permanentlyDead(v, slot) ? 1 : 0;
    if (dead[j] != 0 && plan.loud(v, slot)) {
      loud_dead[j] = 1;
      loud.push_back(v);
    }
  }
  std::vector<char> jammed(n, 0);
  const ReaderGrid g = readerGrid(sys, loud);
  for (std::size_t v = 0; v < n; ++v) {
    const core::Reader& u = sys.reader(static_cast<int>(v));
    g.grid.forEachNear(u.pos, g.reach, [&](std::size_t j) {
      if (static_cast<std::size_t>(loud[j]) != v &&
          victimizes(sys.reader(loud[j]), u)) {
        jammed[v] = 1;
      }
    });
  }
  const auto unservableForever = [&](std::span<const int> cov) {
    for (const int v : cov) {
      if (loud_dead[static_cast<std::size_t>(v)] != 0) return true;
    }
    for (const int v : cov) {
      const auto u = static_cast<std::size_t>(v);
      if (dead[u] == 0 && jammed[u] == 0) return false;  // v can still serve
    }
    return true;
  };
  for (std::size_t t = 0; t < shadow_.size(); ++t) {
    const std::span<const int> cov = geo_.coverers(static_cast<int>(t));
    if (shadow_[t] == 0 && !cov.empty() && !unservableForever(cov)) {
      return false;
    }
  }
  return true;
}

bool ScheduleValidator::beginRun(const core::System& sys) {
  const auto n = static_cast<std::size_t>(sys.numReaders());
  const auto m = static_cast<std::size_t>(sys.numTags());
  begun_ = true;
  slots_checked_ = 0;
  trailing_stall_ = 0;
  sum_served_ = 0;
  shadow_.assign(m, 0);
  trusted_from_.clear();
  const bool faulty = opt_.faults != nullptr && !opt_.faults->empty();
  if (faulty && opt_.reprobe_interval > 0) trusted_from_.assign(n, 0);
  if (opt_.metrics != nullptr) {
    c_slots_ = &opt_.metrics->counter("check.slots_checked");
    c_violations_ = &opt_.metrics->counter("check.violations");
    c_tags_ = &opt_.metrics->counter("check.tags_scanned");
  }

  // Shadow the read-state and re-derive the coverable census from raw
  // positions — never the coverage index we are about to audit.  The rows
  // stay for the run: positions do not move, and every later coverage
  // question (served sets, censuses, orphans) walks them.
  geo_ = geometricCoverage(sys);
  initial_unread_ = 0;
  initial_uncoverable_ = 0;
  for (std::size_t t = 0; t < m; ++t) {
    shadow_[t] = sys.isRead(static_cast<int>(t)) ? 1 : 0;
    if (shadow_[t] != 0) continue;
    ++initial_unread_;
    if (geo_.coverers(static_cast<int>(t)).empty()) ++initial_uncoverable_;
  }
  remaining_coverable_ = initial_unread_ - initial_uncoverable_;

  // One-time index audit: every row of both coverage directions, read
  // through the public accessors, must equal the geometric ground truth.  A
  // corrupted offset, index or bitmap word (the off-by-one and row-decode
  // mutant classes) is caught here, before a single slot runs.
  auditCoverageIndex(sys, geo_,
                     [this](IndexRow row, const std::string& detail) {
                       flag(-1,
                            row == IndexRow::kReader
                                ? "begin.coverage-row-mismatch"
                                : "begin.coverers-csr-mismatch",
                            detail);
                       return true;
                     });
  // The reader rows served the audit only; every later question walks the
  // tag rows.
  std::vector<int>().swap(geo_.cov_off);
  std::vector<int>().swap(geo_.cov_idx);

  // The System's own census must agree with the geometric one.
  if (sys.unreadCount() != initial_unread_) {
    flag(-1, "begin.unread-count-mismatch",
         "System::unreadCount " + std::to_string(sys.unreadCount()) +
             " != shadow " + std::to_string(initial_unread_));
  }
  if (sys.unreadCoverableCount() != remaining_coverable_) {
    flag(-1, "begin.coverable-count-mismatch",
         "System::unreadCoverableCount " +
             std::to_string(sys.unreadCoverableCount()) + " != geometric " +
             std::to_string(remaining_coverable_));
  }

  if (c_tags_ != nullptr) c_tags_->add(static_cast<std::int64_t>(m));
  if (opt_.trace != nullptr) {
    opt_.trace->instant(obs::EventKind::kCheck, "check.begin",
                        {{"readers", static_cast<double>(n)},
                         {"tags", static_cast<double>(m)},
                         {"coverable", static_cast<double>(remaining_coverable_)}});
  }
  return ok() || !opt_.fail_fast;
}

bool ScheduleValidator::checkSlot(const core::System& sys, int slot,
                                  const sched::OneShotResult& proposal,
                                  std::span<const int> live,
                                  std::span<const int> jamming,
                                  std::span<const int> served) {
  // Wall-clock rides with tracing only (the repo-wide determinism
  // discipline); metrics-only runs still bill the logical check.* counters.
  obs::ScopedTimer span(opt_.trace != nullptr ? opt_.metrics : nullptr,
                        "check.slot_us", opt_.trace, "check.slot",
                        obs::EventKind::kCheck);
  if (!begun_) {
    flag(slot, "api.begin-missing", "checkSlot before beginRun");
    return ok() || !opt_.fail_fast;
  }
  if (slot != static_cast<int>(slots_checked_)) {
    flag(slot, "slot.out-of-order",
         "expected slot " + std::to_string(slots_checked_));
  }

  const fault::FaultPlan* plan = opt_.faults;
  const bool faulty = plan != nullptr && !plan->empty();
  const std::span<const int> X = proposal.readers;

  // -- the proposal is a set of valid reader indices, ascending --
  bool well_formed = true;
  for (std::size_t i = 0; i < X.size(); ++i) {
    if (X[i] < 0 || X[i] >= sys.numReaders() || (i > 0 && X[i] <= X[i - 1])) {
      well_formed = false;
      flag(slot, "slot.proposal-not-a-set",
           "readers " + joinInts(X) + " not strictly ascending in range");
      break;
    }
  }
  // -- a channeled proposal names one channel per reader; RTc (and so
  // feasibility) is then judged between same-channel readers only --
  const bool channeled = !proposal.channel.empty();
  if (channeled && proposal.channel.size() != X.size()) {
    well_formed = false;
    flag(slot, "slot.channel-not-aligned",
         std::to_string(proposal.channel.size()) + " channels for " +
             std::to_string(X.size()) + " readers");
  }
  // The proposal's in-range readers and their channels (0 unchanneled); an
  // out-of-range id, flagged above, has no geometry to check.
  std::vector<int> xs;
  std::vector<int> xc;
  for (std::size_t i = 0; i < X.size(); ++i) {
    if (X[i] < 0 || X[i] >= sys.numReaders()) continue;
    xs.push_back(X[i]);
    xc.push_back(channeled && i < proposal.channel.size() ? proposal.channel[i]
                                                          : 0);
  }

  // -- Definition 2 independence, straight from positions and radii.  The
  // predicate is spelled out here instead of calling core::independent so
  // a bug in (or mutation of) the shared inline cannot blind the oracle to
  // itself — the whole point is an independent recomputation.  The grid
  // proposes each reader's near neighbours; the flag names the smallest
  // conflicting (i, j), as a scan of all pairs in order would. --
  if (well_formed && opt_.expect_feasible && xs.size() > 1) {
    const ReaderGrid g = readerGrid(sys, xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const core::Reader& a = sys.reader(xs[i]);
      std::size_t first = xs.size();  // smallest conflicting j > i
      g.grid.forEachNear(a.pos, g.reach, [&](std::size_t j) {
        if (j <= i || j >= first || xc[j] != xc[i]) return;
        const core::Reader& b = sys.reader(xs[j]);
        const double max_r =
            std::max(a.interference_radius, b.interference_radius);
        if (!(geom::dist2(a.pos, b.pos) > max_r * max_r)) first = j;
      });
      if (first < xs.size()) {
        flag(slot, "slot.infeasible",
             "readers " + std::to_string(xs[i]) + " and " +
                 std::to_string(xs[first]) +
                 " violate ‖v_i−v_j‖ > max(R_i,R_j)");
        break;  // one flag per slot is enough
      }
    }
  }

  // -- re-derive the referee's crash strip / bench / jamming split --
  std::vector<int> expect_live;
  std::vector<int> live_chan;  // expect_live's channels
  std::vector<int> expect_jam;
  if (!faulty) {
    expect_live = xs;
    live_chan = xc;
  } else {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const int v = xs[i];
      if (!trusted_from_.empty() &&
          trusted_from_[static_cast<std::size_t>(v)] > slot) {
        continue;  // benched: the driver re-plans around it
      }
      if (plan->crashed(v, slot)) {
        if (!trusted_from_.empty()) {
          trusted_from_[static_cast<std::size_t>(v)] =
              slot + 1 + opt_.reprobe_interval;
        }
        continue;
      }
      expect_live.push_back(v);
      live_chan.push_back(xc[i]);
    }
    for (const int v : plan->loudAt(slot)) {
      if (v >= 0 && v < sys.numReaders()) expect_jam.push_back(v);
    }
  }
  if (!std::equal(expect_live.begin(), expect_live.end(), live.begin(),
                  live.end())) {
    flag(slot, "slot.live-mismatch",
         "driver executed " + joinInts(live) + ", plan dictates " +
             joinInts(expect_live));
  }
  if (!std::equal(expect_jam.begin(), expect_jam.end(), jamming.begin(),
                  jamming.end())) {
    flag(slot, "slot.jamming-mismatch",
         "driver jammed " + joinInts(jamming) + ", plan dictates " +
             joinInts(expect_jam));
  }

  // -- Definition 1 over raw geometry: every unread tag's coverer row (the
  // validator's own, from beginRun) against the radiators = live ∪ jamming.
  // A tag is served iff it is unread, covered by exactly one radiator, and
  // that radiator is a live non-victim.  The no-fault counterfactual on the
  // proposal (claimed-weight and progress checks) walks the same rows; on
  // a clean slot it is exactly |expect_served| (settled below). --
  std::vector<int> radiators(expect_live);
  radiators.insert(radiators.end(), expect_jam.begin(), expect_jam.end());
  const RadiatorMarks marks = radiatorMarks(sys, radiators, live_chan);
  const RadiatorMarks ideal =
      faulty ? radiatorMarks(sys, xs, xc) : RadiatorMarks{};
  std::vector<int> expect_served;
  int ideal_weight = 0;  // the proposal's no-fault Definition 3 weight
  std::int64_t walked = 0;
  for (std::size_t t = 0; t < shadow_.size(); ++t) {
    if (shadow_[t] != 0) continue;
    ++walked;
    const std::span<const int> cov = geo_.coverers(static_cast<int>(t));
    if (marks.serves(cov)) expect_served.push_back(static_cast<int>(t));
    if (faulty && ideal.serves(cov)) ++ideal_weight;
  }
  if (c_tags_ != nullptr) c_tags_->add(walked);
  if (!faulty) ideal_weight = static_cast<int>(expect_served.size());

  // -- interrogation misses re-drawn from the plan --
  if (faulty && plan->hasMissFaults()) {
    std::vector<int> kept;
    kept.reserve(expect_served.size());
    for (const int t : expect_served) {
      if (!plan->drawMiss(slot, t)) kept.push_back(t);
    }
    expect_served = std::move(kept);
  }

  if (!std::equal(expect_served.begin(), expect_served.end(), served.begin(),
                  served.end())) {
    flag(slot, "slot.served-mismatch",
         "referee served " + joinInts(served) + ", geometry dictates " +
             joinInts(expect_served));
  }

  // -- claimed weight and greedy progress --
  if (opt_.expect_exact_weight && proposal.weight != ideal_weight) {
    flag(slot, "slot.claimed-weight-mismatch",
         "scheduler claimed w=" + std::to_string(proposal.weight) +
             ", naive recount w=" + std::to_string(ideal_weight));
  }
  if (opt_.expect_progress && remaining_coverable_ > 0 && ideal_weight == 0) {
    flag(slot, "slot.zero-weight-commit",
         std::to_string(remaining_coverable_) +
             " coverable tags remain but the committed proposal has zero "
             "no-fault weight");
  }

  // -- monotone read-state growth (served tags must be new) --
  for (const int t : served) {
    if (t < 0 || t >= sys.numTags()) {
      flag(slot, "slot.served-out-of-range", "tag " + std::to_string(t));
      continue;
    }
    if (shadow_[static_cast<std::size_t>(t)] != 0) {
      flag(slot, "slot.reread",
           "tag " + std::to_string(t) + " served twice");
    }
    if (sys.isRead(t)) {
      flag(slot, "slot.premature-commit",
           "tag " + std::to_string(t) + " already read pre-commit");
    }
  }

  if (opt_.level == CheckLevel::kParanoid) {
    // Whole-bitmap agreement at every slot, plus the System's own referee
    // and census re-asked against the geometric recount.
    for (int t = 0; t < sys.numTags(); ++t) {
      if (sys.isRead(t) != (shadow_[static_cast<std::size_t>(t)] != 0)) {
        flag(slot, "paranoid.bitmap-divergence",
             "tag " + std::to_string(t) + " read-state diverged");
        break;
      }
    }
    if (sys.unreadCoverableCount() != remaining_coverable_) {
      flag(slot, "paranoid.coverable-count-mismatch",
           "System says " + std::to_string(sys.unreadCoverableCount()) +
               ", shadow ledger says " +
               std::to_string(remaining_coverable_));
    }
    const int referee_w =
        channeled && well_formed
            ? static_cast<int>(
                  sys.wellCoveredTags(X, {}, proposal.channel).size())
            : sys.weight(X);
    if (referee_w != ideal_weight) {
      flag(slot, "paranoid.referee-weight-mismatch",
           "referee weight " + std::to_string(referee_w) +
               " != naive recount " + std::to_string(ideal_weight));
    }
  }

  // -- commit to the shadow ledger, mirroring the driver's markRead --
  for (const int t : served) {
    if (t < 0 || t >= sys.numTags()) continue;
    if (shadow_[static_cast<std::size_t>(t)] != 0) continue;
    shadow_[static_cast<std::size_t>(t)] = 1;
    // Legitimately served tags are coverable by construction; the geometric
    // guard only matters after a served-mismatch in a non-fail-fast run.
    if (!geo_.coverers(t).empty()) --remaining_coverable_;
  }
  trailing_stall_ = served.empty() ? trailing_stall_ + 1 : 0;
  sum_served_ += static_cast<std::int64_t>(served.size());
  ++slots_checked_;
  if (c_slots_ != nullptr) c_slots_->add(1);
  span.arg("slot", static_cast<double>(slot));
  span.arg("served", static_cast<double>(served.size()));
  return ok() || !opt_.fail_fast;
}

bool ScheduleValidator::checkRun(const core::System& sys,
                                 const sched::McsResult& res, int max_slots,
                                 int max_stall) {
  if (!begun_) {
    flag(-1, "api.begin-missing", "checkRun before beginRun");
    return ok();
  }
  if (res.slots != static_cast<int>(slots_checked_)) {
    flag(-1, "run.slot-count-mismatch",
         "result reports " + std::to_string(res.slots) + " slots, " +
             std::to_string(slots_checked_) + " were checked");
  }
  if (static_cast<std::int64_t>(res.tags_read) != sum_served_) {
    flag(-1, "run.tags-read-mismatch",
         "result reports " + std::to_string(res.tags_read) +
             " tags read, slots summed to " + std::to_string(sum_served_));
  }
  if (res.uncoverable != initial_uncoverable_) {
    flag(-1, "run.uncoverable-mismatch",
         "result reports " + std::to_string(res.uncoverable) +
             " uncoverable tags, geometry counts " +
             std::to_string(initial_uncoverable_));
  }

  // Final state: the System's bitmap must be exactly the shadow ledger.
  for (int t = 0; t < sys.numTags(); ++t) {
    if (sys.isRead(t) != (shadow_[static_cast<std::size_t>(t)] != 0)) {
      flag(-1, "run.final-state-divergence",
           "tag " + std::to_string(t) +
               " read-state diverged from the committed slots");
      break;
    }
  }

  // The completion claim, re-derived geometrically.
  const int remaining = shadowCoverableCount();
  if (c_tags_ != nullptr) c_tags_->add(sys.numTags());
  if (res.completed != (remaining == 0)) {
    flag(-1, "run.completed-claim",
         std::string("result says completed=") +
             (res.completed ? "true" : "false") + " but " +
             std::to_string(remaining) + " coverable tags remain unread");
  }

  // Early-exit legitimacy: an incomplete, uninterrupted run must have hit
  // a cap, stalled out, or orphaned every remaining tag behind permanent
  // faults (the unservable-forever predicate, re-derived from geometry).
  if (!res.completed && !res.interrupted &&
      res.stop == sched::McsStop::kNone && remaining > 0) {
    const bool capped = res.slots >= max_slots;
    const bool stalled = trailing_stall_ >= max_stall;
    const bool orphaned = opt_.faults != nullptr && !opt_.faults->empty() &&
                          opt_.faults->hasPermanentDeaths() &&
                          allOrphaned(sys, res.slots);
    if (!capped && !stalled && !orphaned) {
      flag(-1, "run.illegitimate-exit",
           "run ended with " + std::to_string(remaining) +
               " servable tags unread: no cap hit (slots " +
               std::to_string(res.slots) + "/" + std::to_string(max_slots) +
               "), no stall-out (trailing " +
               std::to_string(trailing_stall_) + "/" +
               std::to_string(max_stall) + "), not orphaned");
    }
  }
  // The rows served this run only; another run starts with beginRun.
  geo_ = {};
  begun_ = false;

  if (opt_.metrics != nullptr) {
    opt_.metrics->gauge("check.remaining_coverable")
        .set(static_cast<double>(remaining));
  }
  if (opt_.trace != nullptr) {
    opt_.trace->instant(obs::EventKind::kCheck, "check.end",
                        {{"slots", static_cast<double>(slots_checked_)},
                         {"violations", static_cast<double>(violations_)}});
  }
  return ok();
}

void ScheduleValidator::report(std::ostream& os) const {
  if (ok()) return;
  os << "check: " << violations_ << " violation(s)";
  if (violations_ > static_cast<std::int64_t>(issues_.size())) {
    os << " (first " << issues_.size() << " recorded)";
  }
  os << "\n";
  for (const CheckIssue& i : issues_) {
    os << "  [";
    if (i.slot < 0) {
      os << "run";
    } else {
      os << "slot " << i.slot;
    }
    os << "] " << i.invariant << ": " << i.detail << "\n";
  }
}

}  // namespace rfid::check
