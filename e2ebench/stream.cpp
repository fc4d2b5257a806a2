// stream.cpp — stream_500: the churn-hardened streaming scheduler
// (rfidsched_cli --mode stream --load F --churn C --checkpoint J
// --max-backlog 1500 --shed-after 60 --oracle-every 64 --check --threads 2).
// It is the only workload that mutates core::System and appends to the
// journal on every busy slot.
#include <filesystem>
#include <iostream>
#include <optional>

#include "check/index_oracle.h"
#include "ckpt/journal.h"
#include "graph/interference_graph.h"
#include "harness.h"
#include "sched/growth.h"
#include "sched/streaming.h"
#include "workload/churn.h"
#include "workload/io.h"
#include "workload/rng.h"

namespace e2e {
namespace {

using namespace rfid;

struct Shape {
  int readers = 0;
  int tags = 0;
  double side = 0.0;
  workload::ChurnConfig churn;
  int max_backlog = 0;
  int shed_after = 0;
  int min_repeats = 1;
};

// Arrivals are plain Poisson at the mean rate of an ×4 MMPP burst chain
// (8/slot, enter 0.1, exit 0.25): with the bursts themselves the per-seed
// work varied by ~5% (147-165 oracle checks over ten seeds of 600 slots).
// A repeat is 150 stream slots (~0.5-0.9 s), so one measurement averages
// ~40 repeats spread over every core (repeatFor) and the whole run.
Shape shapeFor(bool smoke) {
  Shape s;
  if (smoke) {
    s.readers = 60;
    s.tags = 600;
    s.side = 109.54;
    s.churn.arrival_rate = 2.0;
    s.churn.depart_rate = 0.5;
    s.churn.move_rate = 0.5;
    s.churn.slots = 60;
    s.max_backlog = 200;
    s.shed_after = 30;
    return s;
  }
  s.readers = 500;
  s.tags = 12000;
  s.side = 316.23;
  s.churn.arrival_rate = 15.0;
  s.churn.depart_rate = 2.5;
  s.churn.move_rate = 2.5;
  s.churn.slots = 150;
  s.max_backlog = 1500;
  s.shed_after = 60;
  s.min_repeats = 3;
  return s;
}

constexpr int kSolverThreads = 2;
constexpr int kOracleEvery = 64;  // the CLI default cadence

/// Which optional stages a stream run carries.  The full run has both; the
/// traced run's ablations drop the oracle, then the journal too.
struct Variant {
  bool oracle = true;
  bool journal = true;
};

struct Repeat {
  double setup_ms = 0.0;
  double e2e_ms = 0.0;
  double rss_mib = 0.0;  // peak resident set during the repeat
  double load_ms = 0.0;
  double graph_ms = 0.0;
  double run_ms = 0.0;
  double sched_ms = 0.0;
  std::int64_t sched_calls = 0;
  Samples slot_ms;  // wall time per busy slot, from on_commit stamps
  std::uint64_t schedule_hash = kFnvBasis;
  std::uint64_t hash = kFnvBasis;  // schedule plus every stream counter
  sched::StreamingResult res;
  int edges = 0;
  std::int64_t journal_bytes = 0;
  std::int64_t grid_queries = 0;
  std::int64_t weight_evals = 0;
  obs::CostBill bill;
};

class Stream {
 public:
  Stream(const RunConfig& cfg, Report& rep)
      : cfg_(cfg), rep_(rep), csv_(cfg.workPath(cfg.workload + ".csv")),
        churn_csv_(cfg.workPath(cfg.workload + ".churn.csv")),
        journal_(cfg.workPath(cfg.workload + ".journal")) {}
  ~Stream() {
    std::error_code ec;
    std::filesystem::remove(csv_, ec);
    std::filesystem::remove(churn_csv_, ec);
    removeJournal(journal_);
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  bool generate(const Shape& shape) {
    shape_ = shape;
    const core::System sys =
        makeDeployment(shape.readers, shape.tags, shape.side, cfg_.seed);
    workload::ChurnConfig cc = shape.churn;
    cc.region_side = shape.side;
    const workload::ChurnTrace churn = workload::makeChurnTrace(
        cc, sys.numTags(), workload::deriveSeed(cfg_.seed, "e2e.churn"));
    return workload::saveDeploymentFile(csv_, sys) &&
           workload::saveChurnTraceFile(churn_csv_, churn);
  }

  std::int64_t inputBytes() const {
    return fileBytes(csv_) + fileBytes(churn_csv_);
  }

  Repeat run(Variant v, obs::TraceSink* sink, obs::MetricsRegistry* reg,
             obs::CostLedger* ledger) {
    Repeat r;
    removeJournal(journal_);
    Layers layers(sink);
    std::optional<core::System> sys;
    std::optional<workload::ChurnTrace> churn;
    std::optional<graph::InterferenceGraph> g;
    std::optional<sched::GrowthScheduler> alg2;
    std::vector<Clock::time_point> stamps;
    stamps.reserve(static_cast<std::size_t>(shape_.churn.slots) * 2 + 64);
    sched::StreamingCheckpointedRun run;
    resetPeakRss();
    const auto t0 = Clock::now();
    Clock::time_point run_start;
    {
      obs::ScopedTimer root(nullptr, "e2e." + cfg_.workload, sink);
      std::string err;
      sys = layers.time("workload.load",
                        [&] { return workload::loadDeploymentFile(csv_, &err); });
      rep_.check(sys.has_value(), "load " + csv_ + ": " + err);
      churn = layers.time("workload.churn_load", [&] {
        return workload::loadChurnTraceFile(churn_csv_, &err);
      });
      rep_.check(churn.has_value(), "load " + churn_csv_ + ": " + err);
      if (!sys || !churn) return r;
      sys->attachMetrics(reg);
      layers.time("graph.build", [&] { g.emplace(*sys); });
      sched::GrowthOptions go;
      go.num_threads = kSolverThreads;
      alg2.emplace(*g, go);
      alg2->attachCost(ledger);
      r.setup_ms = msSince(t0);

      TimedScheduler timed(*alg2);
      check::IndexOracleOptions oo;
      oo.every_epochs = kOracleEvery;
      oo.metrics = reg;
      check::IncrementalIndexOracle oracle(oo);
      sched::StreamingOptions so;
      so.metrics = reg;
      so.cost = ledger;
      if (v.oracle) so.oracle = &oracle;
      so.fail_on_divergence = true;
      so.max_backlog = shape_.max_backlog;
      so.shed_after_slots = shape_.shed_after;
      so.on_commit = [&stamps](int, std::span<const int>, std::span<const int>) {
        stamps.push_back(Clock::now());
      };
      ckpt::CheckpointSetup cs;
      if (v.journal) cs.path = journal_;
      cs.seed = cfg_.seed;
      run_start = Clock::now();
      run = layers.time("stream.run", [&] {
        return sched::runStreamingCheckpointed(*sys, timed, *churn, so, cs);
      });
      r.sched_ms = timed.ms();
      r.sched_calls = timed.calls();
    }
    r.e2e_ms = msSince(t0);
    r.rss_mib = peakRssMib();

    const sched::StreamingResult& res = run.result;
    rep_.check(run.ok, "checkpointed stream run: " + run.error);
    rep_.check(res.drained && !res.interrupted, "stream drained");
    rep_.check(res.index_divergences == 0, "index oracle saw no divergence");
    if (v.journal) {
      const auto journal = ckpt::readJournal(journal_);
      rep_.check(journal.has_value() &&
                     journal->slots.size() == static_cast<std::size_t>(res.slots),
                 "journal holds one record per busy slot");
    }

    r.load_ms = layers.ms("workload.load") + layers.ms("workload.churn_load");
    r.graph_ms = layers.ms("graph.build");
    r.run_ms = layers.ms("stream.run");
    Clock::time_point prev = run_start;
    for (const Clock::time_point t : stamps) {
      r.slot_ms.add(std::chrono::duration<double, std::milli>(t - prev).count());
      prev = t;
    }
    r.schedule_hash = hashSlots(res.schedule);
    std::uint64_t h = r.schedule_hash;
    for (const std::int64_t c :
         {std::int64_t{res.slots}, std::int64_t{res.idle_slots},
          std::int64_t{res.stream_slots}, std::int64_t{res.tags_read},
          std::int64_t{res.uncoverable}, std::int64_t{res.arrived},
          std::int64_t{res.departed}, std::int64_t{res.moved},
          std::int64_t{res.skipped_events}, std::int64_t{res.shed},
          std::int64_t{res.shed_aged}, std::int64_t{res.backlog_peak},
          static_cast<std::int64_t>(res.latency_p99 * 1000.0),
          res.index_checks}) {
      h = mix(h, c);
    }
    r.hash = h;
    r.res = res;
    r.edges = g->numEdges();
    r.journal_bytes = v.journal ? fileBytes(journal_) : 0;
    if (reg != nullptr) {
      r.grid_queries = reg->counter("core.grid_queries").value();
      r.weight_evals = reg->counter("core.weight_evals").value();
    }
    if (ledger != nullptr) r.bill = ledger->total();
    return r;
  }

  /// Traced-run ablation: a second System build from the loaded vectors,
  /// and the churn trace replayed through addTag/removeTag/moveTag on it.
  void coreAblation(Layers& layers) {
    std::string err;
    const auto loaded = workload::loadDeploymentFile(csv_, &err);
    const auto churn = workload::loadChurnTraceFile(churn_csv_, &err);
    if (!loaded || !churn) {
      rep_.check(false, "reload inputs: " + err);
      return;
    }
    std::vector<core::Reader> readers(loaded->readers().begin(),
                                      loaded->readers().end());
    std::vector<core::Tag> tags(loaded->tags().begin(), loaded->tags().end());
    std::optional<core::System> sys;
    layers.time("core.build",
                [&] { sys.emplace(std::move(readers), std::move(tags)); });
    layers.time("core.churn_apply", [&] {
      for (const workload::ChurnEvent& e : churn->events) {
        const bool live = e.tag >= 0 && e.tag < sys->numTags() &&
                          !sys->departed(e.tag);
        switch (e.kind) {
          case workload::ChurnKind::kArrive: {
            core::Tag t;
            t.pos = e.pos;
            t.epc = e.epc;
            sys->addTag(t);
            break;
          }
          case workload::ChurnKind::kDepart:
            if (live) sys->removeTag(e.tag);
            break;
          case workload::ChurnKind::kMove:
            if (live) sys->moveTag(e.tag, e.pos);
            break;
        }
      }
    });
  }

 private:
  const RunConfig& cfg_;
  Report& rep_;
  std::string csv_;
  std::string churn_csv_;
  std::string journal_;
  Shape shape_;
};

}  // namespace

void runStream(const RunConfig& cfg, Report& rep) {
  const Shape shape = shapeFor(cfg.smoke);
  Stream s(cfg, rep);
  if (!s.generate(shape)) {
    rep.check(false, "write the deployment and churn CSVs");
    return;
  }

  std::vector<Repeat> plain;
  const double plain_s = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  repeatFor(plain_s, cfg.traced ? 1 : shape.min_repeats,
            [&] { plain.push_back(s.run({}, nullptr, nullptr, nullptr)); });

  obs::TraceSink sink;
  obs::MetricsRegistry reg;
  obs::CostLedger ledger;
  std::vector<Repeat> traced;
  double build_ms = 0.0;
  double churn_ms = 0.0;
  Repeat no_oracle;
  Repeat bare;
  if (cfg.traced) {
    repeatFor(cfg.seconds / 2, 1, [&] {
      obs::MetricsRegistry later_reg;
      obs::CostLedger later_ledger;
      const bool first = traced.empty();
      traced.push_back(s.run({}, &sink, first ? &reg : &later_reg,
                             first ? &ledger : &later_ledger));
    });
    {
      obs::ScopedTimer span(nullptr, "e2e.ablations", &sink);
      Layers layers(&sink);
      s.coreAblation(layers);
      build_ms = layers.ms("core.build");
      churn_ms = layers.ms("core.churn_apply");
      no_oracle = s.run({false, true}, &sink, nullptr, nullptr);
      bare = s.run({false, false}, &sink, nullptr, nullptr);
    }
    rep.check(no_oracle.schedule_hash == traced.front().schedule_hash &&
                  bare.schedule_hash == traced.front().schedule_hash,
              "the oracle and the journal leave the schedule unchanged");
    rep.check(writeTrace(cfg, sink, reg, ledger), "write the trace files");
  }

  std::vector<Repeat> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  for (const Repeat& r : all) {
    rep.check(r.hash == all.front().hash,
              "every repeat commits the same stream schedule and counters");
  }
  for (const Repeat& r : traced) {
    rep.check(r.bill == traced.front().bill &&
                  r.weight_evals == traced.front().weight_evals,
              "every traced repeat bills the same deterministic work");
  }
  rep.attempted = static_cast<std::int64_t>(all.size());

  const double plain_e2e = meanOf(plain, [](const Repeat& r) { return r.e2e_ms; });
  const auto n = static_cast<std::int64_t>(plain.size());
  rep.set("setup_s", meanOf(plain, [](const Repeat& r) { return r.setup_ms; }) / 1000.0,
          "s", n);
  rep.set("e2e_s", plain_e2e / 1000.0, "s", n);
  rep.set("peak_rss_mib", medianOf(plain, [](const Repeat& r) { return r.rss_mib; }),
          "MiB", n);
  if (!cfg.traced) return;

  const Repeat& first = traced.front();
  const sched::StreamingResult& res = first.res;
  const auto t = static_cast<std::int64_t>(traced.size());
  const auto med = [&](auto field) { return medianOf(traced, field); };
  const double traced_e2e = med([](const Repeat& r) { return r.e2e_ms; });
  const double traced_mean = meanOf(traced, [](const Repeat& r) { return r.e2e_ms; });
  const double sched_ms = med([](const Repeat& r) { return r.sched_ms; });
  const double graph_ms = med([](const Repeat& r) { return r.graph_ms; });
  const double run_ms = med([](const Repeat& r) { return r.run_ms; });
  const double oracle_ms = std::max(0.0, run_ms - no_oracle.run_ms);
  const double journal_ms = std::max(0.0, no_oracle.run_ms - bare.run_ms);
  const double referee_ms =
      std::max(0.0, bare.run_ms - bare.sched_ms - churn_ms);
  const double parse_ms = std::max(
      0.0, med([](const Repeat& r) { return r.load_ms; }) - build_ms);
  const double layer_sum = parse_ms + build_ms + graph_ms + sched_ms +
                           referee_ms + churn_ms + oracle_ms + journal_ms;
  const std::int64_t shed = res.shed + res.shed_aged;
  Samples slots;
  for (const Repeat& r : plain) slots.append(r.slot_ms);

  rep.set("workload.io_parse_ms", parse_ms, "ms", t);
  rep.set("workload.io_bytes", static_cast<double>(s.inputBytes()), "bytes", 1);
  rep.set("core.build_ms", build_ms, "ms", 1);
  rep.set("core.churn_apply_ms", churn_ms, "ms", 1);
  rep.set("core.grid_queries", static_cast<double>(first.grid_queries), "count", 1);
  rep.set("core.weight_evals", static_cast<double>(first.weight_evals), "count", 1);
  rep.set("graph.build_ms", graph_ms, "ms", t);
  rep.set("graph.edges", first.edges, "count", 1);
  rep.set("sched.schedule_ms", sched_ms, "ms", t);
  rep.set("sched.schedule_calls", static_cast<double>(first.sched_calls), "count", 1);
  reportBill(rep, first.bill);
  rep.set("mcs.referee_ms", referee_ms, "ms", 1);
  rep.set("check.index_oracle_ms", oracle_ms, "ms", t);
  rep.set("check.index_checks", static_cast<double>(res.index_checks), "count", 1);
  rep.set("ckpt.journal_ms", journal_ms, "ms", 1);
  rep.set("ckpt.journal_bytes", static_cast<double>(first.journal_bytes), "bytes", 1);
  rep.set("quality.schedule_slots", res.slots, "count", 1);
  rep.set("quality.tags_read", res.tags_read, "count", 1);
  // Busy-slot wall times come from the untraced repeats: the p50 is
  // mutation plus scheduling, the p99 an oracle slot.
  rep.set("stream.slot_ms_p50", slots.median(), "ms",
          static_cast<std::int64_t>(slots.size()));
  rep.set("stream.slot_ms_p99", slots.tail(), "ms",
          static_cast<std::int64_t>(slots.size()));
  rep.set("stream.tag_latency_p99_slots", res.latency_p99, "slots", 1);
  rep.set("stream.shed_frac",
          res.tags_read + shed > 0
              ? static_cast<double>(shed) / static_cast<double>(res.tags_read + shed)
              : 0.0,
          "ratio", 1);
  rep.set("trace.overhead_frac", traced_mean / plain_e2e - 1.0, "ratio", t);
  rep.set("trace.layer_sum_frac", layer_sum / traced_e2e, "ratio", t);
}

}  // namespace e2e
