// pipeline.cpp — site_100k and verified_8k: a deployment file in, a
// committed, checked and link-timed schedule file out.  Each repeat is the
// rfidsched_cli path `--load F --mode mcs --algo alg2 --threads 2 --link gen2
// --checkpoint J` (plus `--check` for verified_8k), followed by writing the
// schedule, all timed from the first byte read to the last byte written.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "check/invariants.h"
#include "ckpt/journal.h"
#include "ckpt/mcs_ckpt.h"
#include "graph/interference_graph.h"
#include "harness.h"
#include "protocol/slot_timing.h"
#include "sched/growth.h"
#include "sched/mcs.h"
#include "workload/io.h"
#include "workload/rng.h"

namespace e2e {
namespace {

using namespace rfid;

struct Shape {
  int readers = 0;
  int tags = 0;
  double side = 0.0;   // 100·sqrt(n/50): the paper's density at any n
  int min_repeats = 1;
};

Shape shapeFor(bool verified, bool smoke) {
  if (smoke) {
    return verified ? Shape{300, 3000, 244.95, 1} : Shape{2000, 20000, 632.46, 1};
  }
  return verified ? Shape{8000, 80000, 1264.9, 3}
                  : Shape{100000, 1000000, 4472.1, 3};
}

constexpr int kSolverThreads = 2;

struct Commit {
  std::vector<int> active;
  std::vector<int> served;
};

/// One repeat's outcome.  The *_ms layer times are the bench's own clock.
struct Repeat {
  double setup_ms = 0.0;
  double e2e_ms = 0.0;
  double rss_mib = 0.0;  // peak resident set during the repeat
  double load_ms = 0.0;
  double graph_ms = 0.0;
  double sched_ms = 0.0;
  double link_ms = 0.0;
  double write_ms = 0.0;
  std::int64_t sched_calls = 0;
  std::uint64_t hash = kFnvBasis;
  int slots = 0;
  int tags_read = 0;
  int edges = 0;
  std::int64_t air_us = 0;
  std::int64_t frames = 0;
  std::int64_t journal_bytes = 0;
  // Traced repeats only: the ablations run after the timed pipeline.
  double build_ms = 0.0;      // a second System from the loaded vectors
  double validator_ms = 0.0;  // validator hooks replayed on the schedule
  double journaled_mcs_ms = 0.0;  // MCS with the journal, no validator
  double bare_mcs_ms = 0.0;       // MCS with no journal and no validator
  double bare_sched_ms = 0.0;
  std::int64_t grid_queries = 0;
  std::int64_t weight_evals = 0;
  std::int64_t tags_scanned = 0;
  obs::CostBill bill;
};

std::uint64_t hashSchedule(const sched::McsResult& res) {
  return mix(mix(mix(hashSlots(res.schedule), res.slots), res.tags_read),
             res.uncoverable);
}

bool writeSchedule(const std::string& path, const sched::McsResult& res,
                   const protocol::LinkTimingResult& lt) {
  std::ofstream os(path, std::ios::trunc);
  os << "# rfidsched schedule v1: " << res.slots << " slots, " << res.tags_read
     << " tags read, " << lt.air_us << " us gen2 air time\n";
  for (std::size_t q = 0; q < res.schedule.size(); ++q) {
    const sched::SlotRecord& s = res.schedule[q];
    os << q << ',' << s.tags_read << ',';
    for (std::size_t i = 0; i < s.active.size(); ++i) {
      os << (i == 0 ? "" : " ") << s.active[i];
    }
    os << '\n';
  }
  os.flush();
  return static_cast<bool>(os);
}

/// Replays the committed schedule through a fresh ScheduleValidator on a
/// reset System — the same hooks runCoveringSchedule calls with --check.
bool replayValidator(core::System& sys, const sched::McsResult& res,
                     const std::vector<Commit>& commits) {
  sys.resetReads();
  check::ScheduleValidator v;
  if (!v.beginRun(sys)) return false;
  for (std::size_t q = 0; q < commits.size(); ++q) {
    const Commit& c = commits[q];
    sched::OneShotResult proposal{c.active, static_cast<int>(c.served.size())};
    v.checkSlot(sys, static_cast<int>(q), proposal, c.active, {}, c.served);
    sys.markRead(c.served);
  }
  const sched::McsOptions defaults;
  return v.checkRun(sys, res, defaults.max_slots, defaults.max_stall) && v.ok();
}

class Pipeline {
 public:
  Pipeline(const RunConfig& cfg, bool verified, Report& rep)
      : cfg_(cfg), verified_(verified), rep_(rep),
        csv_(cfg.workPath(cfg.workload + ".csv")),
        journal_(cfg.workPath(cfg.workload + ".journal")),
        out_(cfg.workPath(cfg.workload + ".schedule.txt")) {}

  ~Pipeline() {
    std::error_code ec;
    std::filesystem::remove(csv_, ec);
    std::filesystem::remove(out_, ec);
    removeJournal(journal_);
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Writes the deployment CSV for the seed (not timed).
  bool generate(const Shape& shape) {
    const core::System sys =
        makeDeployment(shape.readers, shape.tags, shape.side, cfg_.seed);
    m_ = sys.numTags();
    return workload::saveDeploymentFile(csv_, sys);
  }

  /// One pipeline run.  `sink`, `reg` and `ledger` are null when untraced.
  Repeat run(obs::TraceSink* sink, obs::MetricsRegistry* reg,
             obs::CostLedger* ledger) {
    Repeat r;
    removeJournal(journal_);
    Layers layers(sink);
    std::vector<Commit> commits;
    std::optional<core::System> sys;
    std::optional<graph::InterferenceGraph> g;
    std::optional<sched::GrowthScheduler> alg2;
    sched::McsResult res;
    protocol::LinkTimingResult lt;
    bool wrote = false;
    resetPeakRss();
    const auto t0 = Clock::now();
    {
      obs::ScopedTimer root(nullptr, "e2e." + cfg_.workload, sink);
      std::string err;
      sys = layers.time("workload.load",
                        [&] { return workload::loadDeploymentFile(csv_, &err); });
      rep_.check(sys.has_value(), "load " + csv_ + ": " + err);
      if (!sys) return r;
      sys->attachMetrics(reg);
      layers.time("graph.build", [&] { g.emplace(*sys); });
      sched::GrowthOptions go;
      go.num_threads = kSolverThreads;
      alg2.emplace(*g, go);
      alg2->attachCost(ledger);
      r.setup_ms = msSince(t0);

      TimedScheduler timed(*alg2);
      check::CheckOptions co;
      co.metrics = reg;
      check::ScheduleValidator validator(co);
      sched::McsOptions mo;
      mo.cost = ledger;
      if (verified_) mo.validator = &validator;
      if (sink != nullptr) {
        mo.on_commit = [&commits](int, std::span<const int> active,
                                  std::span<const int> served) {
          commits.push_back({{active.begin(), active.end()},
                             {served.begin(), served.end()}});
        };
      }
      ckpt::CheckpointSetup cs;
      cs.path = journal_;
      cs.seed = cfg_.seed;
      ckpt::CheckpointedRun run = layers.time("mcs.run", [&] {
        return ckpt::runMcsCheckpointed(*sys, timed, mo, cs);
      });
      rep_.check(run.ok, "checkpointed MCS run: " + run.error);
      res = std::move(run.result);
      if (verified_) rep_.check(validator.ok(), "ScheduleValidator verdict");
      r.sched_ms = timed.ms();
      r.sched_calls = timed.calls();

      protocol::LinkOptions lo;
      lo.link = protocol::Link::kGen2;
      lo.metrics = reg;
      lt = layers.time("protocol.link", [&] {
        return protocol::timeScheduleLink(
            *sys, res, lo, workload::Rng(cfg_.seed).split("link"));
      });
      wrote = layers.time("workload.write",
                          [&] { return writeSchedule(out_, res, lt); });
    }
    r.e2e_ms = msSince(t0);
    r.rss_mib = peakRssMib();

    // Output checks (untimed).
    rep_.check(wrote, "write " + out_);
    rep_.check(res.completed && !res.interrupted, "MCS run completed");
    rep_.check(res.tags_read + res.uncoverable == m_,
               "tags_read + uncoverable == m");
    rep_.check(lt.check_ok, "gen2 replay invariants: " + lt.check_detail);
    rep_.check(lt.tags_read == res.tags_read, "gen2 fresh reads == tags_read");
    const auto journal = ckpt::readJournal(journal_);
    rep_.check(journal.has_value() &&
                   journal->slots.size() == static_cast<std::size_t>(res.slots),
               "journal holds one record per committed slot");

    r.load_ms = layers.ms("workload.load");
    r.graph_ms = layers.ms("graph.build");
    r.link_ms = layers.ms("protocol.link");
    r.write_ms = layers.ms("workload.write");
    r.slots = res.slots;
    r.tags_read = res.tags_read;
    r.edges = g->numEdges();
    r.air_us = lt.air_us;
    r.frames = lt.frames;
    r.journal_bytes = fileBytes(journal_);
    r.hash = mix(mix(mix(hashSchedule(res), lt.air_us), lt.micro_slots),
                 lt.frames);
    if (reg != nullptr) {
      r.grid_queries = reg->counter("core.grid_queries").value();
      r.weight_evals = reg->counter("core.weight_evals").value();
      r.tags_scanned = reg->counter("check.tags_scanned").value();
    }

    if (sink != nullptr) ablate(*sys, *g, res, commits, layers, r);
    if (ledger != nullptr) r.bill = ledger->total();
    return r;
  }

 private:
  /// Traced-run ablations, outside the timed pipeline: a second System
  /// build (core layer), the validator replay (check layer), and MCS runs
  /// with the journal alone and with neither journal nor validator (what
  /// the journal and the referee cost).
  void ablate(core::System& sys, const graph::InterferenceGraph& g,
              const sched::McsResult& res, const std::vector<Commit>& commits,
              Layers& layers, Repeat& r) {
    obs::ScopedTimer span(nullptr, "e2e.ablations", layers.sink());
    std::vector<core::Reader> readers(sys.readers().begin(), sys.readers().end());
    std::vector<core::Tag> tags(sys.tags().begin(), sys.tags().end());
    layers.time("core.build", [&] {
      const core::System copy(std::move(readers), std::move(tags));
      return copy.numTags();
    });
    r.build_ms = layers.ms("core.build");
    if (verified_) {
      const bool ok = layers.time("check.validator", [&] {
        return replayValidator(sys, res, commits);
      });
      rep_.check(ok, "validator replay on the committed schedule");
      r.validator_ms = layers.ms("check.validator");
    }
    for (const bool journaled : {true, false}) {
      sys.resetReads();
      removeJournal(journal_);
      sched::GrowthOptions go;
      go.num_threads = kSolverThreads;
      sched::GrowthScheduler alg2(g, go);
      TimedScheduler timed(alg2);
      ckpt::CheckpointSetup cs;
      if (journaled) cs.path = journal_;
      cs.seed = cfg_.seed;
      const char* layer = journaled ? "mcs.journaled" : "mcs.bare";
      const ckpt::CheckpointedRun again = layers.time(
          layer, [&] { return ckpt::runMcsCheckpointed(sys, timed, {}, cs); });
      rep_.check(again.ok && hashSchedule(again.result) == hashSchedule(res),
                 std::string(layer) + " commits the same schedule");
      if (!journaled) r.bare_sched_ms = timed.ms();
    }
    r.journaled_mcs_ms = layers.ms("mcs.journaled");
    r.bare_mcs_ms = layers.ms("mcs.bare");
  }

  const RunConfig& cfg_;
  bool verified_;
  Report& rep_;
  std::string csv_;
  std::string journal_;
  std::string out_;
  int m_ = 0;
};

}  // namespace

void runPipeline(const RunConfig& cfg, bool verified, Report& rep) {
  const Shape shape = shapeFor(verified, cfg.smoke);
  Pipeline p(cfg, verified, rep);
  const auto tg = Clock::now();
  if (!p.generate(shape)) {
    rep.check(false, "write the deployment CSV");
    return;
  }
  std::cerr << "e2e: " << cfg.workload << ": n=" << shape.readers
            << " m=" << shape.tags << ", input written in " << msSince(tg)
            << " ms\n";
  const std::int64_t io_bytes = fileBytes(cfg.workPath(cfg.workload + ".csv"));

  // Untraced repeats give the end-to-end numbers; a traced run splits its
  // time between them (the overhead reference) and the traced repeats.
  std::vector<Repeat> plain;
  const double plain_s = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  repeatFor(plain_s, cfg.traced ? 1 : shape.min_repeats,
            [&] { plain.push_back(p.run(nullptr, nullptr, nullptr)); });

  // The trace files carry every repeat's spans but the first traced
  // repeat's counters and cost ledger (later repeats repeat them exactly).
  obs::TraceSink sink;
  obs::MetricsRegistry reg;
  obs::CostLedger ledger;
  std::vector<Repeat> traced;
  if (cfg.traced) {
    repeatFor(cfg.seconds / 2, 1, [&] {
      obs::MetricsRegistry later_reg;
      obs::CostLedger later_ledger;
      const bool first = traced.empty();
      traced.push_back(p.run(&sink, first ? &reg : &later_reg,
                             first ? &ledger : &later_ledger));
    });
    rep.check(writeTrace(cfg, sink, reg, ledger), "write the trace files");
  }

  std::vector<Repeat> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  for (const Repeat& r : all) {
    rep.check(r.hash == all.front().hash,
              "every repeat commits the same schedule and air time");
  }
  for (const Repeat& r : traced) {
    rep.check(r.bill == traced.front().bill &&
                  r.weight_evals == traced.front().weight_evals &&
                  r.tags_scanned == traced.front().tags_scanned,
              "every traced repeat bills the same deterministic work");
  }
  rep.attempted = static_cast<std::int64_t>(all.size());

  const auto n = static_cast<std::int64_t>(plain.size());
  rep.set("setup_s", meanOf(plain, [](const Repeat& r) { return r.setup_ms; }) / 1000.0,
          "s", n);
  const double plain_e2e = meanOf(plain, [](const Repeat& r) { return r.e2e_ms; });
  rep.set("e2e_s", plain_e2e / 1000.0, "s", n);
  rep.set("peak_rss_mib", medianOf(plain, [](const Repeat& r) { return r.rss_mib; }),
          "MiB", n);
  if (!cfg.traced) return;

  const Repeat& first = traced.front();
  const auto t = static_cast<std::int64_t>(traced.size());
  const auto med = [&](auto field) { return medianOf(traced, field); };
  const double build = med([](const Repeat& r) { return r.build_ms; });
  const double parse = med([](const Repeat& r) { return r.load_ms - r.build_ms; });
  const double referee =
      med([](const Repeat& r) { return r.bare_mcs_ms - r.bare_sched_ms; });
  const double validator = med([](const Repeat& r) { return r.validator_ms; });
  const double sched_ms = med([](const Repeat& r) { return r.sched_ms; });
  const double journal = med([](const Repeat& r) {
    return std::max(0.0, r.journaled_mcs_ms - r.bare_mcs_ms);
  });
  const double graph_ms = med([](const Repeat& r) { return r.graph_ms; });
  const double link = med([](const Repeat& r) { return r.link_ms; });
  const double write = med([](const Repeat& r) { return r.write_ms; });
  const double traced_e2e = med([](const Repeat& r) { return r.e2e_ms; });
  const double traced_mean = meanOf(traced, [](const Repeat& r) { return r.e2e_ms; });
  const double layer_sum = parse + build + graph_ms + sched_ms + referee +
                           journal + validator + link + write;

  rep.set("workload.io_parse_ms", parse, "ms", t);
  rep.set("workload.io_bytes", static_cast<double>(io_bytes), "bytes", 1);
  rep.set("workload.write_ms", write, "ms", t);
  rep.set("core.build_ms", build, "ms", t);
  rep.set("core.grid_queries", static_cast<double>(first.grid_queries), "count", 1);
  rep.set("core.weight_evals", static_cast<double>(first.weight_evals), "count", 1);
  rep.set("graph.build_ms", graph_ms, "ms", t);
  rep.set("graph.edges", first.edges, "count", 1);
  rep.set("sched.schedule_ms", sched_ms, "ms", t);
  rep.set("sched.schedule_calls", static_cast<double>(first.sched_calls), "count", 1);
  reportBill(rep, first.bill);
  rep.set("mcs.referee_ms", referee, "ms", t);
  rep.set("check.validator_ms", validator, "ms", t);
  rep.set("check.tags_scanned", static_cast<double>(first.tags_scanned), "count", 1);
  rep.set("ckpt.journal_ms", journal, "ms", t);
  rep.set("ckpt.journal_bytes", static_cast<double>(first.journal_bytes), "bytes", 1);
  rep.set("protocol.link_ms", link, "ms", t);
  rep.set("protocol.gen2_frames", static_cast<double>(first.frames), "count", 1);
  rep.set("protocol.air_ms", static_cast<double>(first.air_us) / 1000.0, "ms", 1);
  rep.set("quality.schedule_slots", first.slots, "count", 1);
  rep.set("quality.tags_read", first.tags_read, "count", 1);
  rep.set("trace.overhead_frac", traced_mean / plain_e2e - 1.0, "ratio", t);
  rep.set("trace.layer_sum_frac", layer_sum / traced_e2e, "ratio", t);
}

}  // namespace e2e
