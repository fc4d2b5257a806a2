#include "protocol/gen2.h"

#include <algorithm>
#include <cmath>

namespace rfid::protocol {

namespace {

int clampQ(int q) { return std::clamp(q, 0, 15); }

}  // namespace

int persistenceSlots(const Gen2Options& opt) {
  switch (opt.session) {
    case Gen2Session::kS0:
      return 0;
    case Gen2Session::kS1:
      return 1;
    case Gen2Session::kS2:
    case Gen2Session::kS3:
      return std::max(0, opt.persistence);
  }
  return 0;
}

Gen2Target roundTarget(const Gen2Options& opt, int macro_slot) {
  if (opt.alternate_target && macro_slot % 2 == 1) return Gen2Target::kB;
  return Gen2Target::kA;
}

void Gen2SessionState::ensure(std::size_t num_tags) {
  if (flag_b_.size() < num_tags) {
    flag_b_.resize(num_tags, 0);
    stamp_.resize(num_tags, -1);
  }
}

void Gen2SessionState::startSlot(int macro_slot, const Gen2Options& opt) {
  const int persist = persistenceSlots(opt);
  for (std::size_t t = 0; t < flag_b_.size(); ++t) {
    if (flag_b_[t] != 0 && macro_slot - stamp_[t] > persist) {
      flag_b_[t] = 0;
      stamp_[t] = -1;
    }
  }
}

void Gen2SessionState::onAck(int t, int macro_slot, Gen2Target target) {
  const auto i = static_cast<std::size_t>(t);
  if (target == Gen2Target::kA) {
    flag_b_[i] = 1;
    stamp_[i] = macro_slot;
  } else {
    flag_b_[i] = 0;
    stamp_[i] = -1;
  }
}

Gen2RoundResult runGen2Round(std::span<const int> population,
                             Gen2SessionState& session, int macro_slot,
                             Gen2Target target, workload::Rng& rng,
                             const Gen2Options& opt) {
  Gen2RoundResult res;
  int max_id = -1;
  for (const int t : population) max_id = std::max(max_id, t);
  session.ensure(static_cast<std::size_t>(max_id + 1));

  // Participants: tags whose session flag matches the round target.
  std::vector<int> pending;
  const bool want_b = target == Gen2Target::kB;
  for (const int t : population) {
    if (session.flagB(t) == want_b) {
      pending.push_back(t);
    } else {
      ++res.session_skips;
    }
  }
  if (pending.empty()) {
    // All suppressed: the slot is silent and charges nothing (deviation
    // from the spec's empty Query — see docs/protocol.md).
    res.completed = true;
    return res;
  }

  const int k = std::max(1, opt.mpr_k);
  double qfp = clampQ(opt.q0);
  int q = clampQ(opt.q0);
  std::vector<std::vector<int>> buckets;
  std::vector<int> backlog;

  while (!pending.empty() && res.frames < opt.max_frames &&
         res.micro_slots < opt.max_micro_slots) {
    const int frame = 1 << q;
    ++res.frames;
    res.air_us += opt.t_query_us;
    buckets.assign(static_cast<std::size_t>(frame), {});
    for (const int t : pending) {
      buckets[static_cast<std::size_t>(rng.uniformInt(0, frame - 1))]
          .push_back(t);
    }
    backlog.clear();
    int frame_collisions = 0;
    int frame_singles = 0;
    int frame_empties = 0;
    std::size_t s = 0;
    for (; s < buckets.size(); ++s) {
      if (res.micro_slots >= opt.max_micro_slots) break;
      const std::vector<int>& b = buckets[s];
      ++res.micro_slots;
      if (b.empty()) {
        ++res.empties;
        ++frame_empties;
        res.air_us += opt.t_empty_us;
        if (opt.policy == Gen2Policy::kQAlgorithm) {
          qfp = std::max(0.0, qfp - opt.c);
        }
      } else if (static_cast<int>(b.size()) <= k) {
        res.air_us += opt.t_success_us;
        if (b.size() == 1) {
          ++res.singles;
          ++frame_singles;
        } else {
          ++res.mpr_slots;
          res.mpr_resolved += static_cast<std::int64_t>(b.size());
        }
        for (const int t : b) {
          session.onAck(t, macro_slot, target);
          res.identified.push_back(t);
        }
      } else {
        ++res.collisions;
        ++frame_collisions;
        res.air_us += opt.t_collision_us;
        for (const int t : b) backlog.push_back(t);
        if (opt.policy == Gen2Policy::kQAlgorithm) {
          qfp = std::min(15.0, qfp + opt.c);
        }
      }
      if (opt.policy == Gen2Policy::kQAlgorithm) {
        const int nq = clampQ(static_cast<int>(std::lround(qfp)));
        if (nq != q) {
          // QueryAdjust: abort the frame; unresolved tags redraw next frame.
          q = nq;
          ++res.adjusts;
          ++s;
          break;
        }
      }
    }
    // Tags in slots the aborted/capped frame never reached redraw too.
    for (; s < buckets.size(); ++s) {
      for (const int t : buckets[s]) backlog.push_back(t);
    }
    pending.swap(backlog);

    if (opt.policy == Gen2Policy::kAfsa && !pending.empty()) {
      // Improved-AFSA estimate: a collision slot hides ≈ 2.39 tags.
      const double estimate =
          std::max(1.0, 2.39 * static_cast<double>(frame_collisions));
      const int nq = clampQ(static_cast<int>(std::ceil(std::log2(estimate))));
      if (nq != q) {
        q = nq;
        ++res.adjusts;
      }
    }

    if (opt.trace != nullptr) {
      opt.trace->instant(
          obs::EventKind::kFrame, "gen2.frame",
          {{"frame", static_cast<double>(res.frames)},
           {"q", static_cast<double>(q)},
           {"singles", static_cast<double>(frame_singles)},
           {"collisions", static_cast<double>(frame_collisions)},
           {"empties", static_cast<double>(frame_empties)},
           {"backlog", static_cast<double>(pending.size())}});
    }
  }
  res.completed = pending.empty();
  // Self-check: no tag is acknowledged twice in one round.  Sorting the
  // round's own identifications keeps the round O(population); an array
  // over the whole deployment would cost O(m) per round.
  std::vector<int> ids = res.identified;
  std::sort(ids.begin(), ids.end());
  res.double_identified =
      std::adjacent_find(ids.begin(), ids.end()) != ids.end();

  if (opt.metrics != nullptr) {
    opt.metrics->counter("protocol.gen2.frames").add(res.frames);
    opt.metrics->counter("protocol.gen2.adjusts").add(res.adjusts);
    opt.metrics->counter("protocol.gen2.micro_slots").add(res.micro_slots);
    opt.metrics->counter("protocol.gen2.singles").add(res.singles);
    opt.metrics->counter("protocol.gen2.collisions").add(res.collisions);
    opt.metrics->counter("protocol.gen2.empties").add(res.empties);
    opt.metrics->counter("protocol.gen2.mpr_slots").add(res.mpr_slots);
    opt.metrics->counter("protocol.gen2.mpr_resolved").add(res.mpr_resolved);
    opt.metrics->counter("protocol.gen2.session_skips").add(res.session_skips);
    opt.metrics->counter("protocol.gen2.tags_identified")
        .add(static_cast<std::int64_t>(res.identified.size()));
    opt.metrics->counter("protocol.gen2.air_us").add(res.air_us);
    opt.metrics->counter("protocol.gen2.double_identifications")
        .add(res.double_identified ? 1 : 0);
  }
  return res;
}

}  // namespace rfid::protocol
