#include "protocol/slot_timing.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "protocol/aloha.h"
#include "protocol/tree_walking.h"

namespace rfid::protocol {

namespace {

/// Bits needed to separate all EPCs in the system.
int epcBits(const core::System& sys) {
  std::uint64_t mx = 1;
  for (const core::Tag& t : sys.tags()) mx = std::max(mx, t.epc);
  return std::max(1, 64 - std::countl_zero(mx));
}

}  // namespace

const char* linkName(Link link) {
  switch (link) {
    case Link::kUnit:
      return "unit";
    case Link::kAloha:
      return "aloha";
    case Link::kTreeWalk:
      return "tree";
    case Link::kGen2:
      return "gen2";
  }
  return "?";
}

bool parseLink(std::string_view text, Link& out) {
  if (text == "unit") {
    out = Link::kUnit;
  } else if (text == "aloha") {
    out = Link::kAloha;
  } else if (text == "tree") {
    out = Link::kTreeWalk;
  } else if (text == "gen2") {
    out = Link::kGen2;
  } else {
    return false;
  }
  return true;
}

namespace {

LinkTimingResult timeScheduleGen2(core::System& sys,
                                  const sched::McsResult& schedule,
                                  const LinkOptions& opt,
                                  const workload::Rng& rng) {
  sys.resetReads();
  // The replay never marks reads on `sys`, so wellCoveredTags yields each
  // slot's *physical* population (stale repliers included); the timer
  // tracks the schedule's own read-state to tell fresh reads from stale.
  Gen2LinkTimer timer(sys, opt.gen2, rng);
  int slot_idx = 0;
  for (const sched::SlotRecord& slot : schedule.schedule) {
    timer.onSlot(slot_idx++, slot.active,
                 sys.wellCoveredTags(slot.active, {}, slot.channel),
                 slot.tags_read);
  }
  // Leave `sys` fully re-marked, as the unit and aloha/tree replays do.
  for (int t = 0; t < sys.numTags(); ++t) {
    if (timer.hasRead(t)) sys.markRead(t);
  }
  timer.flushMetrics(opt.metrics);
  return timer.result();
}

}  // namespace

workload::Rng alohaReaderRng(const workload::Rng& link, int slot, int reader) {
  return link.split("aloha.slot", static_cast<std::uint64_t>(slot))
      .split("aloha.reader", static_cast<std::uint64_t>(reader));
}

LinkTimingResult timeScheduleLink(core::System& sys,
                                  const sched::McsResult& schedule,
                                  const LinkOptions& opt, workload::Rng rng) {
  if (opt.link == Link::kGen2) {
    return timeScheduleGen2(sys, schedule, opt, rng);
  }
  LinkTimingResult res;
  res.link = opt.link;
  if (opt.link == Link::kUnit) {
    // The paper's unit-cost slot: one micro-slot per macro-slot.  Replay
    // only to recover the tag count; no link state, no air-time model.
    sys.resetReads();
    for (const sched::SlotRecord& slot : schedule.schedule) {
      const std::vector<int> served =
          sys.wellCoveredTags(slot.active, {}, slot.channel);
      res.tags_read += static_cast<int>(served.size());
      res.micro_slots += 1;
      res.micro_slots_serial += static_cast<std::int64_t>(slot.active.size());
      ++res.macro_slots;
      sys.markRead(served);
    }
    return res;
  }
  // Framed ALOHA / tree-walking: each slot costs its slowest reader's
  // arbitration over the fresh tags it serves (readers run in parallel).
  sys.resetReads();
  const int bits = epcBits(sys);
  std::vector<int> cov;
  for (const sched::SlotRecord& slot : schedule.schedule) {
    const std::vector<int> served =
        sys.wellCoveredTags(slot.active, {}, slot.channel);
    std::int64_t slot_max = 0;
    for (const int v : slot.active) {
      // Tags of v among the served set (exclusive coverage ⇒ unique owner).
      std::vector<std::uint64_t> epcs;
      sys.coveredTags(v, cov);
      for (const int t : cov) {
        if (std::binary_search(served.begin(), served.end(), t)) {
          epcs.push_back(sys.tag(t).epc);
        }
      }
      if (epcs.empty()) continue;
      std::int64_t cost = 0;
      if (opt.link == Link::kAloha) {
        workload::Rng reader_rng = alohaReaderRng(rng, res.macro_slots, v);
        cost = runAloha(static_cast<int>(epcs.size()), reader_rng).micro_slots;
      } else {
        cost = runTreeWalk(epcs, bits).probes;
      }
      slot_max = std::max(slot_max, cost);
      res.micro_slots_serial += cost;
    }
    res.micro_slots += slot_max;
    ++res.macro_slots;
    res.tags_read += static_cast<int>(served.size());
    sys.markRead(served);
  }
  res.air_us = res.micro_slots * opt.t_micro_us;
  res.air_us_serial = res.micro_slots_serial * opt.t_micro_us;
  return res;
}

Gen2LinkTimer::Gen2LinkTimer(const core::System& sys, const Gen2Options& opt,
                             workload::Rng rng)
    : sys_(&sys), opt_(opt), rng_(rng) {
  opt_.metrics = nullptr;  // aggregated via flushMetrics
  opt_.trace = nullptr;
  persist_ = persistenceSlots(opt_);
  persistence_check_ =
      !opt_.alternate_target &&
      (opt_.session == Gen2Session::kS2 || opt_.session == Gen2Session::kS3);
  res_.link = Link::kGen2;
  owner_pos_.assign(static_cast<std::size_t>(sys.numReaders()), -1);
  session_.ensure(static_cast<std::size_t>(sys.numTags()));
}

bool Gen2LinkTimer::hasRead(int t) const {
  const auto ti = static_cast<std::size_t>(t);
  return ti < read_.size() && read_[ti] != 0;
}

void Gen2LinkTimer::fail(const std::string& why) {
  if (res_.check_ok) {
    res_.check_ok = false;
    res_.check_detail = why;
  }
}

void Gen2LinkTimer::onSlot(int slot, std::span<const int> active,
                           std::span<const int> population, int credited) {
  // A stream adds tags between slots; the read-state follows the System.
  const auto m = static_cast<std::size_t>(sys_->numTags());
  if (read_.size() < m) {
    read_.resize(m, 0);
    last_ident_.resize(m, std::numeric_limits<int>::min() / 2);
  }
  session_.startSlot(slot, opt_);
  // Group the population by its unique active coverer.
  pops_.assign(active.size(), {});
  for (std::size_t i = 0; i < active.size(); ++i) {
    owner_pos_[static_cast<std::size_t>(active[i])] = static_cast<int>(i);
  }
  for (const int t : population) {
    for (const int v : sys_->coverers(t)) {
      const int pos = owner_pos_[static_cast<std::size_t>(v)];
      if (pos >= 0) {
        pops_[static_cast<std::size_t>(pos)].push_back(t);
        break;  // exactly-one coverage ⇒ unique active coverer
      }
    }
  }
  for (const int v : active) owner_pos_[static_cast<std::size_t>(v)] = -1;

  std::int64_t slot_max_us = 0;
  std::int64_t slot_max_micro = 0;
  int fresh_this_slot = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (pops_[i].empty()) continue;
    const int v = active[i];
    workload::Rng reader_rng =
        rng_.split("gen2.slot", static_cast<std::uint64_t>(slot))
            .split("gen2.reader", static_cast<std::uint64_t>(v));
    // The co-simulation pins target A: alternating targets would suppress
    // fresh tags every other macro-slot, which the covering schedule's
    // read requirement cannot absorb (docs/protocol.md).
    const Gen2RoundResult r = runGen2Round(pops_[i], session_, slot,
                                           Gen2Target::kA, reader_rng, opt_);
    slot_max_us = std::max(slot_max_us, r.air_us);
    slot_max_micro = std::max(slot_max_micro, r.micro_slots);
    res_.micro_slots_serial += r.micro_slots;
    res_.air_us_serial += r.air_us;
    res_.frames += r.frames;
    res_.session_skips += r.session_skips;
    res_.identified += static_cast<std::int64_t>(r.identified.size());
    if (r.double_identified) {
      ++res_.double_identifications;
      std::ostringstream os;
      os << "gen2: reader " << v << " acknowledged a tag twice in one "
         << "round (slot " << slot << ")";
      fail(os.str());
    }
    if (!r.completed) {
      std::ostringstream os;
      os << "gen2: reader " << v << " round incomplete at slot " << slot
         << " (safety cap hit with repliers unresolved)";
      fail(os.str());
    }
    for (const int t : r.identified) {
      const auto ti = static_cast<std::size_t>(t);
      if (persistence_check_ && slot - last_ident_[ti] <= persist_) {
        std::ostringstream os;
        os << "gen2: tag " << t << " re-identified at slot " << slot << ", "
           << (slot - last_ident_[ti])
           << " slot(s) after its last read, inside the session "
           << "persistence window (" << persist_ << ")";
        fail(os.str());
      }
      last_ident_[ti] = slot;
      if (read_[ti] != 0) {
        ++res_.stale_repliers;
      } else {
        read_[ti] = 1;
        ++fresh_this_slot;
      }
    }
  }
  if (fresh_this_slot != credited) {
    std::ostringstream os;
    os << "gen2: slot " << slot << " identified " << fresh_this_slot
       << " fresh tag(s) but the schedule recorded " << credited;
    fail(os.str());
  }
  res_.air_us += slot_max_us;
  res_.micro_slots += slot_max_micro;
  res_.tags_read += fresh_this_slot;
  ++res_.macro_slots;
}

void Gen2LinkTimer::flushMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  obs::MetricsRegistry& m = *metrics;
  m.counter("protocol.gen2.macro_slots").add(res_.macro_slots);
  m.counter("protocol.gen2.frames").add(res_.frames);
  m.counter("protocol.gen2.micro_slots").add(res_.micro_slots_serial);
  m.counter("protocol.gen2.air_us").add(res_.air_us);
  m.counter("protocol.gen2.air_us_serial").add(res_.air_us_serial);
  m.counter("protocol.gen2.tags_identified").add(res_.identified);
  m.counter("protocol.gen2.fresh_reads").add(res_.tags_read);
  m.counter("protocol.gen2.session_skips").add(res_.session_skips);
  m.counter("protocol.gen2.stale_repliers").add(res_.stale_repliers);
  m.counter("protocol.gen2.double_identifications")
      .add(res_.double_identifications);
}

}  // namespace rfid::protocol
