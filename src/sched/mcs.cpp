#include "sched/mcs.h"

#include "check/invariants.h"
#include "ckpt/journal.h"
#include "fault/channel_model.h"
#include "fault/fault_plan.h"
#include "sched/mcs_loop.h"

namespace rfid::sched {

namespace {

/// Unread coverable tags no future slot can serve at `slot` under the
/// plan's *permanent* failures.  Waiting for an orphaned tag would only spin
/// the stall counter.  Three ways a permanent (never-recovering) failure
/// orphans a tag at `slot`:
///   1. every coverer is permanently dead;
///   2. the tag sits in a permanently-loud reader's interrogation disk, so
///      its coverage multiplicity is >= 2 in every future slot (RRc);
///   3. every coverer not permanently dead sits inside a permanently-loud
///      reader's interference disk, i.e. is an RTc victim forever on every
///      channel (a stuck transmitter is channel-blind).
int countMcsOrphans(const core::System& sys, const fault::FaultPlan& plan,
                    int slot) {
  std::vector<char> jammed_tag(static_cast<std::size_t>(sys.numTags()), 0);
  std::vector<int> loud;
  std::vector<int> row;
  for (int j = 0; j < sys.numReaders(); ++j) {
    if (!plan.permanentlyDead(j, slot) || !plan.loud(j, slot)) continue;
    loud.push_back(j);
    sys.coveredTags(j, row);
    for (const int t : row) {
      jammed_tag[static_cast<std::size_t>(t)] = 1;
    }
  }
  const std::vector<char> victim = sys.victimsOf(loud);
  int orphans = 0;
  for (int t = 0; t < sys.numTags(); ++t) {
    if (sys.isRead(t)) continue;
    const std::span<const int> cov = sys.coverers(t);
    if (cov.empty()) continue;
    bool unservable = true;
    if (jammed_tag[static_cast<std::size_t>(t)] == 0) {
      for (const int v : cov) {
        if (!plan.permanentlyDead(v, slot) &&
            victim[static_cast<std::size_t>(v)] == 0) {
          unservable = false;
          break;
        }
      }
    }
    orphans += unservable ? 1 : 0;
  }
  return orphans;
}

/// BudgetStop -> McsStop (kNone only when the budget did not fire).
McsStop budgetStop(ckpt::BudgetStop bs) {
  switch (bs) {
    case ckpt::BudgetStop::kSlotCap: return McsStop::kSlotCap;
    case ckpt::BudgetStop::kDeadline: return McsStop::kDeadline;
    case ckpt::BudgetStop::kCancelled: return McsStop::kCancelled;
    case ckpt::BudgetStop::kNone: break;
  }
  return McsStop::kCancelled;
}

}  // namespace

const char* mcsStopName(McsStop s) {
  switch (s) {
    case McsStop::kNone: return "none";
    case McsStop::kSlotCap: return "slot-cap";
    case McsStop::kDeadline: return "deadline";
    case McsStop::kCancelled: return "cancelled";
    case McsStop::kJournalError: return "journal-error";
    case McsStop::kReplayMismatch: return "replay-mismatch";
    case McsStop::kCheckFailed: return "check-failed";
  }
  return "?";
}

McsSlotLoop::McsSlotLoop(core::System& sys, OneShotScheduler& scheduler,
                         const McsLoopOptions& opt,
                         check::ScheduleValidator* validator,
                         McsLoopResult& res)
    : sys_(sys),
      scheduler_(scheduler),
      opt_(opt),
      validator_(validator),
      res_(res),
      plan_(opt.faults),
      faulty_(plan_ != nullptr && !plan_->empty()),
      checkpointing_(opt.journal != nullptr || opt.resume != nullptr),
      // Wall-clock histogram only when tracing, like the per-slot spans.
      run_span_(opt.trace != nullptr ? opt.metrics : nullptr, "mcs.run_us",
                opt.trace, "mcs.run") {
  // Resolve counter handles once; the loop then pays one pointer test per
  // slot when observability is detached.
  if (opt_.metrics != nullptr) {
    c_slots_ = &opt_.metrics->counter("mcs.slots");
    c_tags_ = &opt_.metrics->counter("mcs.tags_read");
    c_stalls_ = &opt_.metrics->counter("mcs.stall_slots");
    h_proposed_ = &opt_.metrics->histogram("mcs.slot_proposed_readers");
    h_tags_ = &opt_.metrics->histogram("mcs.slot_tags_read");
  }
  // fault.mcs.* counters exist only on fault-injected runs so that clean
  // runs export the exact pre-fault metrics JSON.
  if (opt_.metrics != nullptr && faulty_) {
    c_crashed_ = &opt_.metrics->counter("fault.mcs.crashed_activations");
    c_replanned_ = &opt_.metrics->counter("fault.mcs.replanned_activations");
    c_missed_ = &opt_.metrics->counter("fault.mcs.tags_missed");
    c_faulty_slots_ = &opt_.metrics->counter("fault.mcs.faulty_slots");
    c_slots_lost_ = &opt_.metrics->counter("fault.mcs.slots_lost");
  }
  // ckpt.* counters are *logical*: they count committed slots and due
  // snapshot boundaries, bumped identically whether a slot is replay-
  // verified or freshly appended, so a resumed run exports the exact
  // metrics JSON of the uninterrupted one.  Physical IO detail (replay
  // spans, snapshot writes) rides on kCkpt trace events only.  They exist
  // only when checkpointing is attached, keeping plain runs bit-identical
  // to the pre-checkpoint driver.
  if (opt_.metrics != nullptr && checkpointing_) {
    c_ckpt_slots_ = &opt_.metrics->counter("ckpt.slots_committed");
    c_ckpt_snaps_ = &opt_.metrics->counter("ckpt.snapshots");
  }
  if (faulty_ && opt_.reprobe_interval > 0) {
    trusted_from_.assign(static_cast<std::size_t>(sys_.numReaders()), 0);
  }
}

bool McsSlotLoop::step(int clock, bool settled) {
  committed_ = false;
  if (opt_.budget != nullptr) {
    const ckpt::BudgetStop bs = opt_.budget->charge(res_.slots);
    if (bs != ckpt::BudgetStop::kNone) {
      res_.interrupted = true;
      res_.stop = budgetStop(bs);
      return false;
    }
  }
  if (opt_.progress != nullptr) {
    opt_.progress->fetch_add(1, std::memory_order_relaxed);
  }
  // While a resume journal still has records ahead of the committed-slot
  // index we are replaying: the slot is recomputed through this exact body
  // and verified against its record instead of being appended.
  const bool replaying =
      opt_.resume != nullptr &&
      res_.slots < static_cast<int>(opt_.resume->slots.size());
  if (settled && faulty_ && plan_->hasPermanentDeaths()) {
    const int orphans = countMcsOrphans(sys_, *plan_, clock);
    if (orphans >= sys_.unreadCoverableCount()) {
      res_.degradation.tags_orphaned = orphans;
      return false;  // everything still unread is unservable forever
    }
  }
  if (opt_.channel != nullptr) opt_.channel->setSlot(clock);

  // Baseline for this slot's bill: committed slots get the ledger delta
  // accrued between here and the commit point below.
  obs::CostBill slot_base;
  if (opt_.cost != nullptr) slot_base = opt_.cost->total();

  // Wall-clock span only when tracing (see McsLoopOptions doc).
  obs::ScopedTimer span(opt_.trace != nullptr ? opt_.metrics : nullptr,
                        "mcs.slot_us", opt_.trace, "mcs.slot",
                        obs::EventKind::kSlot);
  const OneShotResult one = scheduler_.schedule(sys_);
  if (opt_.budget != nullptr && opt_.budget->token().cancelled()) {
    // The proposal was (or may have been) computed under a fired token —
    // the scheduler could have returned a truncated search result.
    // Discard it, so the committed prefix of an interrupted run is always
    // a prefix of the uninterrupted trajectory (the anytime contract).
    res_.interrupted = true;
    res_.stop = budgetStop(opt_.budget->charge(res_.slots));
    return false;
  }

  int crashed_here = 0;
  int replanned_here = 0;
  int missed_here = 0;
  int ideal_here = 0;
  bool slot_faulty = false;
  bool slot_lost = false;
  // Hoisted from the faulty branch so the validator can see the executed
  // split; on the clean path all three stay empty (no allocation, no
  // referee change).  The System referees a channeled proposal
  // (one.channel non-empty) in the channel model.
  std::vector<int> live;
  std::vector<int> live_channel;
  std::vector<int> jamming;
  if (!faulty_) {
    served_ = sys_.wellCoveredTags(one.readers, {}, one.channel);
  } else {
    // Split the proposal: benched readers are stripped (the driver
    // re-planned around a known failure), crashed ones read nothing.
    live.reserve(one.readers.size());
    for (std::size_t i = 0; i < one.readers.size(); ++i) {
      const int v = one.readers[i];
      if (!trusted_from_.empty() &&
          trusted_from_[static_cast<std::size_t>(v)] > clock) {
        ++replanned_here;
        continue;
      }
      if (plan_->crashed(v, clock)) {
        ++crashed_here;
        if (!trusted_from_.empty()) {
          trusted_from_[static_cast<std::size_t>(v)] =
              clock + 1 + opt_.reprobe_interval;
        }
        continue;
      }
      live.push_back(v);
      if (!one.channel.empty()) live_channel.push_back(one.channel[i]);
    }
    // Every loud-crashed reader jams while crashed, proposed or not — a
    // stuck transmitter does not wait for an activation and re-planning
    // cannot silence it.  The referee charges its RRc multiplicity and
    // RTc victimization against the live set, whatever their channels.
    for (const int v : plan_->loudAt(clock)) {
      if (v >= 0 && v < sys_.numReaders()) jamming.push_back(v);
    }
    served_ = sys_.wellCoveredTags(live, jamming, live_channel);
    // Interrogation misses: a well-covered tag can still fail its
    // inventory round; it stays unread and future slots retry it.
    if (plan_->hasMissFaults()) {
      std::vector<int> kept;
      kept.reserve(served_.size());
      for (const int t : served_) {
        if (plan_->drawMiss(clock, t)) {
          ++missed_here;
        } else {
          kept.push_back(t);
        }
      }
      served_ = std::move(kept);
    }
    // The no-fault counterfactual for degradation accounting: what this
    // exact proposal would have served on ideal hardware.
    ideal_here = static_cast<int>(
        sys_.wellCoveredTags(one.readers, {}, one.channel).size());
    McsDegradation& d = res_.degradation;
    d.ideal_tags_read += ideal_here;
    d.crashed_activations += crashed_here;
    d.replanned_activations += replanned_here;
    d.tags_missed += missed_here;
    slot_faulty =
        crashed_here + replanned_here + missed_here > 0 ||
        (!jamming.empty() && static_cast<int>(served_.size()) != ideal_here);
    slot_lost = slot_faulty && served_.empty() && ideal_here > 0;
    d.faulty_slots += slot_faulty ? 1 : 0;
    d.slots_lost += slot_lost ? 1 : 0;
    if (c_crashed_ != nullptr) {
      c_crashed_->add(crashed_here);
      c_replanned_->add(replanned_here);
      c_missed_->add(missed_here);
      if (slot_faulty) c_faulty_slots_->add(1);
      if (slot_lost) c_slots_lost_->add(1);
    }
    if (opt_.trace != nullptr && slot_faulty) {
      opt_.trace->instant(
          obs::EventKind::kFault, "fault.mcs.slot",
          {{"slot", static_cast<double>(clock)},
           {"crashed", static_cast<double>(crashed_here)},
           {"replanned", static_cast<double>(replanned_here)},
           {"missed", static_cast<double>(missed_here)},
           {"served", static_cast<double>(served_.size())},
           {"ideal", static_cast<double>(ideal_here)}});
    }
  }

  // The referee's own deterministic work: one wellCoveredTags evaluation
  // on the clean path; the faulty path adds the jam-aware split and the
  // ideal counterfactual.  csr_rows counts the coverage rows each
  // evaluation walks (one per activated/jamming reader).
  if (opt_.cost != nullptr) {
    obs::CostBill ref;
    if (!faulty_) {
      ref.weight_evals = 1;
      ref.csr_rows = static_cast<std::int64_t>(one.readers.size());
    } else {
      ref.weight_evals = 2;
      ref.csr_rows = static_cast<std::int64_t>(
          live.size() + jamming.size() + one.readers.size());
    }
    opt_.cost->charge("mcs.referee", ref);
  }

  // The oracle re-derives this slot's verdict from raw geometry and the
  // plan before anything is made durable: a fail-fast violation aborts
  // with the slot neither journaled nor marked read.
  if (validator_ != nullptr &&
      !validator_->checkSlot(sys_, clock, one,
                             faulty_ ? std::span<const int>(live)
                                     : std::span<const int>(one.readers),
                             jamming, served_)) {
    res_.stop = McsStop::kCheckFailed;
    return false;
  }

  if (checkpointing_) {
    // The journal record of this slot: everything the replay validator
    // needs to re-verify the deterministic recomputation above.
    ckpt::SlotEntry entry;
    entry.slot = res_.slots;
    entry.active = one.readers;
    entry.served = served_;
    entry.crashed = crashed_here;
    entry.replanned = replanned_here;
    entry.missed = missed_here;
    entry.ideal = ideal_here;
    entry.faulty = slot_faulty;
    entry.lost = slot_lost;
    entry.epoch = faulty_ ? plan_->epochAt(clock) : 0;
    entry.fp = scheduler_.stateFingerprint();
    if (replaying) {
      if (!(entry ==
            opt_.resume->slots[static_cast<std::size_t>(res_.slots)])) {
        // The replay diverged from the recorded run — different binary,
        // environment, or a corrupted-but-CRC-valid record.  Fail closed
        // without committing the divergent slot.
        res_.stop = McsStop::kReplayMismatch;
        return false;
      }
    } else if (opt_.journal != nullptr) {
      if (!opt_.journal->appendSlot(entry)) {
        // Could not make the slot durable (disk full, journal closed):
        // stop before committing it, so the journal and the returned
        // result agree on the committed prefix.
        res_.stop = McsStop::kJournalError;
        return false;
      }
    }
  }
  sys_.markRead(served_);
  if (opt_.on_commit) opt_.on_commit(res_.slots, one.readers, served_);
  committed_ = true;

  SlotRecord rec;
  rec.active = one.readers;
  rec.channel = one.channel;
  rec.tags_read = static_cast<int>(served_.size());
  res_.schedule.push_back(std::move(rec));
  ++res_.slots;
  res_.tags_read += static_cast<int>(served_.size());

  if (opt_.cost != nullptr) {
    // The slot is committed: its bill is everything charged since the
    // slot's baseline (scheduler phases + referee).  Aborted slots never
    // reach here, so Σ slot bills tracks the committed prefix exactly.
    obs::CostBill slot_bill = opt_.cost->total();
    slot_bill.subtract(slot_base);
    opt_.cost->commitSlot(slot_bill);
  }

  if (served_.empty()) {
    ++stall_;
  } else {
    stall_ = 0;
  }

  if (c_slots_ != nullptr) {
    c_slots_->add(1);
    c_tags_->add(static_cast<std::int64_t>(served_.size()));
    if (served_.empty()) c_stalls_->add(1);
    h_proposed_->record(static_cast<double>(one.readers.size()));
    h_tags_->record(static_cast<double>(served_.size()));
  }
  if (opt_.trace != nullptr) {
    span.arg("slot", static_cast<double>(res_.slots));
    span.arg("proposed", static_cast<double>(one.readers.size()));
    span.arg("claimed_weight", static_cast<double>(one.weight));
    span.arg("delivered", static_cast<double>(served_.size()));
    span.arg("stall", static_cast<double>(stall_));
  }

  if (checkpointing_) {
    if (c_ckpt_slots_ != nullptr) c_ckpt_slots_->add(1);
    if (replaying) {
      ++res_.replayed_slots;
      // Cross-check the loaded snapshot against the replayed read-state
      // at its boundary: a bitmap that disagrees with the journal it
      // rode beside means one of the two is lying.
      if (opt_.resume->snapshot.has_value() &&
          opt_.resume->snapshot->slot == res_.slots) {
        const ckpt::Snapshot& snap = *opt_.resume->snapshot;
        bool match = static_cast<int>(snap.read.size()) == sys_.numTags();
        for (int t = 0; match && t < sys_.numTags(); ++t) {
          match = (snap.read[static_cast<std::size_t>(t)] != 0) ==
                  sys_.isRead(t);
        }
        if (!match) {
          res_.stop = McsStop::kReplayMismatch;
          return false;
        }
      }
    }
    if (opt_.journal != nullptr && opt_.journal->snapshotDue(res_.slots)) {
      if (c_ckpt_snaps_ != nullptr) c_ckpt_snaps_->add(1);
      if (!replaying) {
        ckpt::Snapshot snap;
        snap.slot = res_.slots;
        snap.read.resize(static_cast<std::size_t>(sys_.numTags()), 0);
        for (int t = 0; t < sys_.numTags(); ++t) {
          snap.read[static_cast<std::size_t>(t)] = sys_.isRead(t) ? 1 : 0;
        }
        if (!opt_.journal->writeSnapshot(snap)) {
          res_.stop = McsStop::kJournalError;
          return false;
        }
        if (opt_.trace != nullptr) {
          opt_.trace->instant(obs::EventKind::kCkpt, "ckpt.snapshot",
                              {{"slot", static_cast<double>(res_.slots)}});
        }
      }
    }
  }

  return !(served_.empty() && stall_ >= opt_.max_stall);
}

void McsSlotLoop::finish(int clock_end) {
  if (res_.stop == McsStop::kNone && !res_.interrupted &&
      opt_.resume != nullptr &&
      res_.replayed_slots < static_cast<int>(opt_.resume->slots.size())) {
    // Natural termination (covered / stalled / slot cap) with journal
    // records still unconsumed: the recorded run committed slots past the
    // point where this trajectory ends, so the two diverged.  Fail closed.
    res_.stop = McsStop::kReplayMismatch;
  }
  if (faulty_ && plan_->hasPermanentDeaths() &&
      res_.degradation.tags_orphaned == 0) {
    // Caps may have ended the loop before the orphan check ran; settle the
    // final accounting against the last executed slot.
    res_.degradation.tags_orphaned =
        countMcsOrphans(sys_, *plan_, clock_end > 0 ? clock_end - 1 : 0);
  }
  if (opt_.metrics != nullptr && faulty_) {
    opt_.metrics->gauge("fault.mcs.tags_orphaned")
        .set(static_cast<double>(res_.degradation.tags_orphaned));
    opt_.metrics->gauge("fault.mcs.ideal_tags_read")
        .set(static_cast<double>(res_.degradation.ideal_tags_read));
  }
}

void McsSlotLoop::traceDone(bool completed) {
  if (opt_.trace == nullptr) return;
  if (res_.replayed_slots > 0) {
    opt_.trace->instant(obs::EventKind::kCkpt, "ckpt.replay",
                        {{"slots", static_cast<double>(res_.replayed_slots)}});
  }
  opt_.trace->instant(obs::EventKind::kSpan, "mcs.done",
                      {{"slots", static_cast<double>(res_.slots)},
                       {"tags_read", static_cast<double>(res_.tags_read)},
                       {"completed", completed ? 1.0 : 0.0}});
}

McsResult runCoveringSchedule(core::System& sys, OneShotScheduler& scheduler,
                              const McsOptions& opt) {
  McsResult res;
  res.uncoverable = sys.unreadCount() - sys.unreadCoverableCount();
  McsSlotLoop loop(sys, scheduler, opt, opt.validator, res);

  // The oracle refuses to referee a System whose derived structures already
  // contradict raw geometry (fail-fast only; otherwise it records the
  // violations and watches the run anyway).
  bool more = opt.validator == nullptr || opt.validator->beginRun(sys);
  if (!more) res.stop = McsStop::kCheckFailed;
  // The static driver's clock is the committed-slot index.
  while (more && sys.unreadCoverableCount() > 0 && res.slots < opt.max_slots) {
    more = loop.step(res.slots, /*settled=*/true);
  }
  loop.finish(res.slots);
  res.completed = sys.unreadCoverableCount() == 0;
  // Run postconditions.  Skipped when the run already failed closed mid-slot
  // (check / journal / replay): those paths leave a checked-but-uncommitted
  // slot behind, so the oracle's ledger legitimately leads the System.
  if (opt.validator != nullptr && res.stop != McsStop::kCheckFailed &&
      res.stop != McsStop::kJournalError &&
      res.stop != McsStop::kReplayMismatch) {
    if (!opt.validator->checkRun(sys, res, opt.max_slots, opt.max_stall)) {
      res.stop = McsStop::kCheckFailed;
    }
  }
  loop.traceDone(res.completed);
  return res;
}

}  // namespace rfid::sched
