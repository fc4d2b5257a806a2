// rfidsched_cli — run any scenario × algorithm from the command line.
//
//   rfidsched_cli [--algo alg1|alg2|alg3|ghc|ca|exact|mc]
//                 [--mode oneshot|mcs|stream] [--readers N] [--tags M]
//                 [--side S] [--lambda-R X] [--lambda-r Y] [--seed S]
//                 [--layout uniform|clusters|aisles|grid]
//                 [--channels C] [--rho R] [--k K] [--svg PATH]
//                 [--save PATH] [--load PATH] [--fault PATH]
//                 [--metrics PATH] [--trace PATH] [--jsonl PATH]
//                 [--cost PATH] [--prom PATH]
//                 [--checkpoint PATH] [--resume]
//                 [--deadline-ms N] [--max-slots N]
//                 [--threads N] [--check[=paranoid]]
//
// --threads caps the worker threads the parallel schedulers (alg1 shift
// fan-out, alg2 component fan-out) may use; 0 picks the hardware
// concurrency.  The schedules are identical at every thread count
// (docs/performance.md).
//
// Prints a human-readable report; --svg additionally renders the (first)
// slot decision.  --save writes the generated deployment to PATH (CSV) and
// --load runs on a previously saved deployment instead of generating one,
// so a site survey can be replayed against every algorithm.
//
// --fault loads a fault::FaultPlan text spec (grammar in docs/faults.md)
// and replays its reader crashes, link losses, and interrogation misses
// against the run; mcs mode then prints the degradation summary (slots
// lost, crashed activations, orphaned tags, achieved vs. ideal coverage).
//
// Observability: --metrics writes a JSON metrics dump (counters / gauges /
// histograms from the scheduler, the MCS driver, the System referee, and
// the network simulator), --trace writes a Chrome trace_event file for
// chrome://tracing, and --jsonl writes the same events as JSON-lines.
// --cost writes the deterministic per-phase / per-slot cost-attribution
// ledger (bit-identical across --threads counts), --prom writes the metrics
// as Prometheus text exposition.  All telemetry sinks are flushed on the
// early-exit paths too (budget exit 3, checkpoint-integrity exit 4,
// invariant-violation exit 5), so a failed run still leaves its evidence
// behind for rfidsched_report.  See docs/observability.md.
//
// Crash safety and budgets (mcs mode only; docs/recovery.md):
// --checkpoint journals every committed slot to PATH (snapshot sidecar at
// PATH.snap); --resume validates and replays an existing journal and
// continues — resumed output is byte-identical to an uninterrupted run
// (checkpoint chatter goes to stderr so stdout stays diffable).
// --deadline-ms / --max-slots bound the run; an expiring budget returns
// the valid best-so-far schedule marked interrupted.
//
// Streaming (--mode stream, or the --stream shorthand; docs/streaming.md):
// the population churns while the schedule runs.  Tag arrivals, departures,
// and moves come from a generated Poisson/bursty-MMPP trace (--arrival-rate,
// --depart-rate, --move-rate, --stream-slots, --burst) or a file (--churn);
// the driver patches the coverage index incrementally, an index oracle
// periodically re-derives it from raw geometry and self-heals divergences,
// and overload control (--max-backlog, --shed-after, --shed-policy) sheds
// load instead of letting backlog grow without bound.  --checkpoint/--resume
// work as in mcs mode with the churn trace folded into the journal identity.
//
// --check arms the runtime invariant oracle (docs/testing.md): every slot
// is re-verified from first principles — independence from raw geometry,
// the served set by a naive exactly-one-coverage scan, monotone read-state
// growth, MCS postconditions — against the faulted referee when --fault is
// given, and across replayed slots when resuming.  --check=paranoid adds
// whole-bitmap and referee cross-checks at every slot.  Verdicts go to
// stderr so stdout stays byte-identical to an unchecked run; overhead is
// visible in the check.* metrics.
//
// Exit codes:
//   0  success
//   2  bad usage / bad configuration (the offending flag is named)
//   3  run interrupted by --deadline-ms / --max-slots — or by SIGTERM/SIGINT,
//      which ride the same cooperative-cancel path: the driver stops at the
//      next slot boundary, telemetry flushes, and the journal (with
//      --checkpoint) is left resumable instead of torn mid-write
//      (result still valid and, with --checkpoint, resumable)
//   4  checkpoint integrity failure (corrupt journal, identity mismatch,
//      replay divergence, journal write error)
//   5  invariant violation detected by --check
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/svg.h"
#include "check/index_oracle.h"
#include "check/invariants.h"
#include "ckpt/budget.h"
#include "ckpt/mcs_ckpt.h"
#include "fault/channel_model.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "protocol/gen2.h"
#include "protocol/slot_timing.h"
#include "sched/mcs.h"
#include "sched/streaming.h"
#include "service/queue.h"
#include "service/service.h"
#include "service/signals.h"
#include "workload/churn.h"
#include "workload/io.h"
#include "workload/scenario.h"

namespace {

struct Cli {
  std::string algo = "alg2";
  std::string mode = "mcs";
  std::string layout = "uniform";
  std::string svg_path;
  std::string save_path;     // write the generated deployment and continue
  std::string load_path;     // run on a saved deployment instead of generating
  std::string metrics_path;  // JSON metrics dump
  std::string trace_path;    // Chrome trace_event JSON
  std::string jsonl_path;    // JSONL event log
  std::string cost_path;     // deterministic cost-attribution ledger (JSON)
  std::string prom_path;     // Prometheus text exposition of the metrics
  std::string fault_path;    // fault plan text spec
  std::string ckpt_path;     // slot journal (snapshot rides at PATH.snap)
  bool resume = false;       // replay + continue an existing journal
  int deadline_ms = -1;      // wall-clock budget (-1 = unset, 0 allowed)
  int max_slots = 0;         // committed-slot budget (0 = unset)
  int readers = 50;
  int tags = 1200;
  double side = 100.0;
  double lambda_R = 10.0;
  double lambda_r = 4.0;
  std::uint64_t seed = 1;
  int channels = 2;
  double rho = 1.25;
  int k = 4;
  int threads = 0;       // 0 = hardware concurrency
  bool check = false;           // arm the invariant oracle
  bool check_paranoid = false;  // per-slot bitmap/referee cross-checks
  // Streaming (--mode stream only).
  std::string churn_path;       // load a churn trace instead of generating
  std::string save_churn_path;  // write the generated churn trace (CSV)
  double arrival_rate = 5.0;    // Poisson tag arrivals per stream slot
  double depart_rate = 0.0;     // Poisson departures per stream slot
  double move_rate = 0.0;       // Poisson moves per stream slot
  int stream_slots = 100;       // generated trace horizon (slots of churn)
  double burst = 1.0;           // MMPP burst arrival-rate multiplier
  double burst_enter = 0.05;    // P(enter burst) per slot
  double burst_exit = 0.25;     // P(leave burst) per slot
  int max_backlog = 0;          // shed unread coverable tags above this (0=off)
  int shed_after = 0;           // shed tags unread for more slots (0=off)
  std::string shed_policy = "newest";  // newest|largest
  int oracle_every = 64;        // index-oracle cadence in structural epochs
  // Link-layer co-simulation (docs/protocol.md).  "unit" is the paper's
  // unit-cost slot and leaves every output byte-identical to a pre-link run.
  std::string link = "unit";         // unit|aloha|tree|gen2
  int gen2_q0 = 4;                   // initial Q (frame 2^Q)
  double gen2_c = 0.3;               // Q-algorithm step
  std::string gen2_session = "s2";   // s0|s1|s2|s3
  int gen2_mpr = 1;                  // MPR capability (<=1 = plain Gen2)
  int gen2_persistence = 16;         // S2/S3 flag persistence (macro-slots)
  std::string gen2_policy = "qalg";  // qalg|afsa
};

void usage() {
  std::cerr <<
      "usage: rfidsched_cli [--algo alg1|alg2|alg3|ghc|ca|exact|mc]\n"
      "                     [--mode oneshot|mcs|stream] [--readers N] [--tags M]\n"
      "                     [--side S] [--lambda-R X] [--lambda-r Y]\n"
      "                     [--seed S] [--layout uniform|clusters|aisles|grid]\n"
      "                     [--channels C] [--rho R] [--k K] [--svg PATH]\n"
      "                     [--save PATH] [--load PATH] [--fault PATH]\n"
      "                     [--metrics PATH] [--trace PATH] [--jsonl PATH]\n"
      "                     [--cost PATH] [--prom PATH]\n"
      "                     [--checkpoint PATH] [--resume]\n"
      "                     [--deadline-ms N] [--max-slots N]\n"
      "\n"
      "  --save PATH     write the generated deployment to PATH (CSV), then run\n"
      "  --load PATH     run on a saved deployment instead of generating one\n"
      "  --fault PATH    inject the fault plan at PATH (spec: docs/faults.md)\n"
      "  --metrics PATH  write scheduler/driver/referee metrics as JSON\n"
      "  --trace PATH    write a Chrome trace_event file (chrome://tracing)\n"
      "  --jsonl PATH    write the trace as JSON-lines (one event per line)\n"
      "  --cost PATH     write the deterministic cost-attribution ledger\n"
      "                  (per-phase and per-slot work units; bit-identical\n"
      "                  across --threads counts)\n"
      "  --prom PATH     write the metrics as Prometheus text exposition\n"
      "  --checkpoint P  journal committed MCS slots to P (crash-safe;\n"
      "                  docs/recovery.md); refuses to overwrite an existing\n"
      "                  journal unless --resume is given\n"
      "  --resume        validate + replay the journal at --checkpoint and\n"
      "                  continue; resumed output is byte-identical to an\n"
      "                  uninterrupted run\n"
      "  --deadline-ms N stop after N ms wall clock with the best-so-far\n"
      "                  schedule (mcs mode only)\n"
      "  --max-slots N   stop after N committed slots (mcs mode only)\n"
      "  --threads N     worker threads for parallel schedulers (0 = auto)\n"
      "  --check         re-verify every slot from first principles (the\n"
      "                  invariant oracle, docs/testing.md); verdicts go to\n"
      "                  stderr, violations exit 5\n"
      "  --check=paranoid  additionally cross-check the read bitmap and the\n"
      "                  referee at every slot\n"
      "\n"
      "streaming (--mode stream, shorthand --stream; docs/streaming.md):\n"
      "  --arrival-rate X  Poisson tag arrivals per stream slot (default 5)\n"
      "  --depart-rate X   Poisson tag departures per stream slot (default 0)\n"
      "  --move-rate X     Poisson tag moves per stream slot (default 0)\n"
      "  --stream-slots N  churn-trace horizon in stream slots (default 100)\n"
      "  --burst X         bursty MMPP: multiply the arrival rate by X while\n"
      "                  in a burst (default 1 = plain Poisson)\n"
      "  --burst-enter P / --burst-exit P  per-slot burst entry/exit odds\n"
      "  --churn PATH      replay the churn trace at PATH instead of\n"
      "                  generating one\n"
      "  --save-churn P    write the generated churn trace to P (CSV)\n"
      "  --max-backlog N   shed unread coverable tags above N (0 = off)\n"
      "  --shed-after N    shed tags unread for more than N slots (0 = off)\n"
      "  --shed-policy newest|largest  which tags the backlog bound sheds\n"
      "  --oracle-every N  verify the incremental coverage index against raw\n"
      "                  geometry every N structural epochs (default 64;\n"
      "                  --check=paranoid verifies every iteration)\n"
      "\n"
      "link-layer co-simulation (docs/protocol.md):\n"
      "  --link L          unit|aloha|tree|gen2 (default unit = the paper's\n"
      "                  unit-cost slot, output unchanged).  mcs mode replays\n"
      "                  the schedule under the link model and reports the\n"
      "                  seconds-denominated schedule length; stream mode\n"
      "                  co-simulates gen2 online.  Incompatible with --fault\n"
      "  --gen2-q0 N       initial Q, frame size 2^Q (default 4)\n"
      "  --gen2-c X        Q-algorithm step C in (0,1] (default 0.3)\n"
      "  --gen2-session S  s0|s1|s2|s3 (default s2; s2/s3 flags persist\n"
      "                  across macro-slots so inventoried tags cost nothing)\n"
      "  --gen2-mpr K      resolve up to K colliding replies per micro-slot\n"
      "                  (default 1 = plain single-reply Gen2)\n"
      "  --gen2-persistence N  s2/s3 flag persistence in macro-slots\n"
      "                  (default 16)\n"
      "  --gen2-policy P   qalg|afsa Q-adaptation policy (default qalg)\n"
      "\n"
      "exit codes: 0 success; 2 bad usage; 3 interrupted by budget\n"
      "            (--deadline-ms/--max-slots); 4 checkpoint integrity\n"
      "            failure; 5 invariant violation (--check)\n";
}

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto known = [&a]() {
      static const char* flags[] = {
          "--algo", "--mode", "--layout", "--svg",  "--save",
          "--load", "--metrics", "--trace", "--jsonl", "--cost",
          "--prom", "--readers",
          "--tags", "--side", "--lambda-R", "--lambda-r", "--seed",
          "--channels", "--rho", "--k", "--fault", "--checkpoint",
          "--deadline-ms", "--max-slots", "--threads",
          "--arrival-rate", "--depart-rate", "--move-rate", "--stream-slots",
          "--burst", "--burst-enter", "--burst-exit", "--churn",
          "--save-churn", "--max-backlog", "--shed-after", "--shed-policy",
          "--oracle-every", "--link", "--gen2-q0", "--gen2-c",
          "--gen2-session", "--gen2-mpr", "--gen2-persistence",
          "--gen2-policy"};
      for (const char* f : flags) {
        if (a == f) return true;
      }
      return false;
    };
    const char* v = nullptr;
    if (a == "--algo" && (v = next())) cli.algo = v;
    else if (a == "--mode" && (v = next())) cli.mode = v;
    else if (a == "--layout" && (v = next())) cli.layout = v;
    else if (a == "--svg" && (v = next())) cli.svg_path = v;
    else if (a == "--save" && (v = next())) cli.save_path = v;
    else if (a == "--load" && (v = next())) cli.load_path = v;
    else if (a == "--metrics" && (v = next())) cli.metrics_path = v;
    else if (a == "--trace" && (v = next())) cli.trace_path = v;
    else if (a == "--jsonl" && (v = next())) cli.jsonl_path = v;
    else if (a == "--cost" && (v = next())) cli.cost_path = v;
    else if (a == "--prom" && (v = next())) cli.prom_path = v;
    else if (a == "--fault" && (v = next())) cli.fault_path = v;
    else if (a == "--checkpoint" && (v = next())) cli.ckpt_path = v;
    else if (a == "--resume") cli.resume = true;
    else if (a == "--deadline-ms" && (v = next())) cli.deadline_ms = std::atoi(v);
    else if (a == "--max-slots" && (v = next())) cli.max_slots = std::atoi(v);
    else if (a == "--readers" && (v = next())) {
      // 64-bit-safe parse: a value past int range must be rejected with the
      // flag named, not wrapped into a small (or negative) count.
      const long long x = std::strtoll(v, nullptr, 10);
      if (x > std::numeric_limits<int>::max()) {
        std::cerr << "invalid value for --readers: " << v
                  << " exceeds the supported maximum "
                  << std::numeric_limits<int>::max() << "\n";
        return false;
      }
      cli.readers = static_cast<int>(x);
    }
    else if (a == "--tags" && (v = next())) {
      const long long x = std::strtoll(v, nullptr, 10);
      if (x > std::numeric_limits<int>::max()) {
        std::cerr << "invalid value for --tags: " << v
                  << " exceeds the supported maximum "
                  << std::numeric_limits<int>::max() << "\n";
        return false;
      }
      cli.tags = static_cast<int>(x);
    }
    else if (a == "--side" && (v = next())) cli.side = std::atof(v);
    else if (a == "--lambda-R" && (v = next())) cli.lambda_R = std::atof(v);
    else if (a == "--lambda-r" && (v = next())) cli.lambda_r = std::atof(v);
    else if (a == "--seed" && (v = next())) cli.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--channels" && (v = next())) cli.channels = std::atoi(v);
    else if (a == "--rho" && (v = next())) cli.rho = std::atof(v);
    else if (a == "--k" && (v = next())) cli.k = std::atoi(v);
    else if (a == "--threads" && (v = next())) cli.threads = std::atoi(v);
    else if (a == "--stream") cli.mode = "stream";
    else if (a == "--arrival-rate" && (v = next())) cli.arrival_rate = std::atof(v);
    else if (a == "--depart-rate" && (v = next())) cli.depart_rate = std::atof(v);
    else if (a == "--move-rate" && (v = next())) cli.move_rate = std::atof(v);
    else if (a == "--stream-slots" && (v = next())) cli.stream_slots = std::atoi(v);
    else if (a == "--burst" && (v = next())) cli.burst = std::atof(v);
    else if (a == "--burst-enter" && (v = next())) cli.burst_enter = std::atof(v);
    else if (a == "--burst-exit" && (v = next())) cli.burst_exit = std::atof(v);
    else if (a == "--churn" && (v = next())) cli.churn_path = v;
    else if (a == "--save-churn" && (v = next())) cli.save_churn_path = v;
    else if (a == "--max-backlog" && (v = next())) cli.max_backlog = std::atoi(v);
    else if (a == "--shed-after" && (v = next())) cli.shed_after = std::atoi(v);
    else if (a == "--shed-policy" && (v = next())) cli.shed_policy = v;
    else if (a == "--oracle-every" && (v = next())) cli.oracle_every = std::atoi(v);
    else if (a == "--link" && (v = next())) cli.link = v;
    else if (a == "--gen2-q0" && (v = next())) cli.gen2_q0 = std::atoi(v);
    else if (a == "--gen2-c" && (v = next())) cli.gen2_c = std::atof(v);
    else if (a == "--gen2-session" && (v = next())) cli.gen2_session = v;
    else if (a == "--gen2-mpr" && (v = next())) cli.gen2_mpr = std::atoi(v);
    else if (a == "--gen2-persistence" && (v = next())) cli.gen2_persistence = std::atoi(v);
    else if (a == "--gen2-policy" && (v = next())) cli.gen2_policy = v;
    else if (a == "--check") cli.check = true;
    else if (a == "--check=paranoid") {
      cli.check = true;
      cli.check_paranoid = true;
    }
    else if (known()) {
      std::cerr << "missing value for option: " << a << "\n";
      return false;
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  const auto reject = [](const char* flag, const char* why) {
    std::cerr << "invalid value for " << flag << ": " << why << "\n";
    return false;
  };
  if (cli.readers <= 0) return reject("--readers", "must be > 0");
  if (cli.tags < 0) return reject("--tags", "must be >= 0");
  if (cli.side <= 0) return reject("--side", "must be > 0");
  if (cli.lambda_R < 1) return reject("--lambda-R", "must be >= 1");
  if (cli.lambda_r < 1) return reject("--lambda-r", "must be >= 1");
  if (cli.k < 2) return reject("--k", "must be >= 2");
  if (cli.rho <= 1.0) return reject("--rho", "must be > 1");
  if (cli.channels < 1) return reject("--channels", "must be >= 1");
  if (cli.threads < 0) return reject("--threads", "must be >= 0");
  if (cli.deadline_ms < -1) return reject("--deadline-ms", "must be >= 0");
  if (cli.max_slots < 0) return reject("--max-slots", "must be > 0");
  if (cli.resume && cli.ckpt_path.empty()) {
    return reject("--resume", "requires --checkpoint PATH");
  }
  const bool ckpt_flags = !cli.ckpt_path.empty() || cli.deadline_ms >= 0 ||
                          cli.max_slots > 0;
  if (ckpt_flags && cli.mode != "mcs" && cli.mode != "stream") {
    return reject("--checkpoint/--deadline-ms/--max-slots",
                  "only apply to --mode mcs or stream");
  }
  if (cli.arrival_rate < 0) return reject("--arrival-rate", "must be >= 0");
  if (cli.depart_rate < 0) return reject("--depart-rate", "must be >= 0");
  if (cli.move_rate < 0) return reject("--move-rate", "must be >= 0");
  if (cli.stream_slots < 0) return reject("--stream-slots", "must be >= 0");
  if (cli.burst < 1.0) return reject("--burst", "must be >= 1");
  if (cli.burst_enter < 0 || cli.burst_enter > 1) {
    return reject("--burst-enter", "must be a probability in [0,1]");
  }
  if (cli.burst_exit < 0 || cli.burst_exit > 1) {
    return reject("--burst-exit", "must be a probability in [0,1]");
  }
  if (cli.max_backlog < 0) return reject("--max-backlog", "must be >= 0");
  if (cli.shed_after < 0) return reject("--shed-after", "must be >= 0");
  if (cli.shed_policy != "newest" && cli.shed_policy != "largest") {
    return reject("--shed-policy", "must be newest or largest");
  }
  if (cli.oracle_every < 0) return reject("--oracle-every", "must be >= 0");
  if (cli.link != "unit" && cli.link != "aloha" && cli.link != "tree" &&
      cli.link != "gen2") {
    return reject("--link", "must be unit, aloha, tree, or gen2");
  }
  if (cli.gen2_q0 < 0 || cli.gen2_q0 > 15) {
    return reject("--gen2-q0", "must be in [0, 15]");
  }
  if (cli.gen2_c <= 0.0 || cli.gen2_c > 1.0) {
    return reject("--gen2-c", "must be in (0, 1]");
  }
  if (cli.gen2_session != "s0" && cli.gen2_session != "s1" &&
      cli.gen2_session != "s2" && cli.gen2_session != "s3") {
    return reject("--gen2-session", "must be s0, s1, s2, or s3");
  }
  if (cli.gen2_mpr < 0) return reject("--gen2-mpr", "must be >= 0");
  if (cli.gen2_persistence < 0) {
    return reject("--gen2-persistence", "must be >= 0");
  }
  if (cli.gen2_policy != "qalg" && cli.gen2_policy != "afsa") {
    return reject("--gen2-policy", "must be qalg or afsa");
  }
  if (cli.link != "unit") {
    if (cli.mode == "oneshot") {
      return reject("--link", "only applies to --mode mcs or stream");
    }
    if (cli.mode == "stream" && cli.link != "gen2") {
      return reject("--link",
                    "stream mode co-simulates only gen2 (mcs mode also "
                    "replays aloha/tree)");
    }
    if (!cli.fault_path.empty()) {
      return reject("--link",
                    "cannot co-simulate a fault-injected run (the schedule "
                    "records proposed sets, not faulted executions)");
    }
  }
  return true;
}

/// Integer-microsecond air time as "S.UUUUUU" seconds — pure integer
/// arithmetic, so the printed schedule length is bit-identical everywhere.
std::string secondsStr(std::int64_t us) {
  std::ostringstream os;
  os << us / 1000000 << '.' << std::setw(6) << std::setfill('0')
     << us % 1000000;
  return os.str();
}

rfid::protocol::Gen2Options buildGen2Options(const Cli& cli) {
  using rfid::protocol::Gen2Policy;
  using rfid::protocol::Gen2Session;
  rfid::protocol::Gen2Options o;
  o.q0 = cli.gen2_q0;
  o.c = cli.gen2_c;
  o.mpr_k = cli.gen2_mpr;
  o.persistence = cli.gen2_persistence;
  o.policy = cli.gen2_policy == "afsa" ? Gen2Policy::kAfsa
                                       : Gen2Policy::kQAlgorithm;
  if (cli.gen2_session == "s0") o.session = Gen2Session::kS0;
  else if (cli.gen2_session == "s1") o.session = Gen2Session::kS1;
  else if (cli.gen2_session == "s3") o.session = Gen2Session::kS3;
  else o.session = Gen2Session::kS2;
  return o;
}

std::string linkConfigStr(const Cli& cli) {
  std::ostringstream os;
  os << cli.link;
  if (cli.link == "gen2") {
    os << "[q0=" << cli.gen2_q0 << " c=" << cli.gen2_c << " session="
       << cli.gen2_session << " mpr=" << cli.gen2_mpr << " policy="
       << cli.gen2_policy << "]";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfid;
  Cli cli;
  if (!parse(argc, argv, cli)) {
    usage();
    return 2;
  }

  workload::Scenario sc = workload::paperScenario(cli.lambda_R, cli.lambda_r);
  sc.deploy.num_readers = cli.readers;
  sc.deploy.num_tags = cli.tags;
  sc.deploy.region_side = cli.side;
  if (cli.layout == "clusters") sc.layout = workload::Layout::kClusteredTags;
  else if (cli.layout == "aisles") sc.layout = workload::Layout::kAisles;
  else if (cli.layout == "grid") sc.layout = workload::Layout::kGridReaders;
  else if (cli.layout != "uniform") {
    std::cerr << "invalid value for --layout: " << cli.layout << "\n";
    usage();
    return 2;
  }

  // Observability sinks live for the whole invocation; attachments below
  // are nullptr-safe, so runs without --metrics/--trace/--cost pay nothing.
  obs::MetricsRegistry registry;
  obs::TraceSink sink;
  obs::CostLedger ledger;
  obs::MetricsRegistry* metrics =
      cli.metrics_path.empty() && cli.prom_path.empty() ? nullptr : &registry;
  obs::TraceSink* trace =
      cli.trace_path.empty() && cli.jsonl_path.empty() ? nullptr : &sink;
  obs::CostLedger* cost = cli.cost_path.empty() ? nullptr : &ledger;

  core::System sys = [&]() -> core::System {
    try {
      if (!cli.load_path.empty()) {
        std::string err;
        auto loaded = workload::loadDeploymentFile(cli.load_path, &err);
        if (!loaded) {
          std::cerr << "failed to load deployment from " << cli.load_path
                    << ": " << err << "\n";
          std::exit(2);
        }
        return std::move(*loaded);
      }
      return workload::makeSystem(sc, cli.seed);
    } catch (const std::length_error& e) {
      // The coverage index would overflow its 32-bit arena offsets
      // (core::System fails closed); surface the sizing math as bad usage.
      std::cerr << "invalid --readers/--tags combination: " << e.what() << "\n";
      std::exit(2);
    }
  }();
  sys.attachMetrics(metrics);
  if (!cli.save_path.empty()) {
    if (!workload::saveDeploymentFile(cli.save_path, sys)) {
      std::cerr << "failed to save deployment to " << cli.save_path << "\n";
      return 2;
    }
    std::cout << "deployment saved to " << cli.save_path << '\n';
  }
  const graph::InterferenceGraph g(sys);

  const std::unique_ptr<sched::OneShotScheduler> scheduler =
      service::makeScheduler(cli.algo, sys, g, cli.k, cli.rho, cli.channels,
                             cli.seed, cli.threads);
  if (scheduler == nullptr) {
    std::cerr << "invalid value for --algo: " << cli.algo << "\n";
    usage();
    return 2;
  }
  scheduler->attachMetrics(metrics);
  scheduler->attachTrace(trace);
  scheduler->attachCost(cost);

  // Signal hardening: SIGTERM/SIGINT cancel this token from the handler, so
  // a kill rides the same cooperative-cancel path as an expiring budget —
  // the driver stops at the next slot boundary (schedulers bail at their
  // next poll), the journal stays whole, and every telemetry sink flushes
  // before the exit-3 return.  An unfired token is behavior-identical to no
  // token at all, so goldens and equivalence checks are unaffected.
  ckpt::RunBudget budget;
  service::installStopSignalHandlers(&budget.token());
  scheduler->attachCancel(&budget.token());

  // Fault injection: the plan drives the MCS referee, the channel model
  // makes any distributed scheduler's control plane lossy and crash-prone.
  fault::FaultPlan fault_plan;
  std::unique_ptr<fault::ChannelModel> channel;
  if (!cli.fault_path.empty()) {
    std::string err;
    auto loaded = fault::FaultPlan::loadFile(cli.fault_path, &err);
    if (!loaded) {
      std::cerr << "failed to load fault plan from " << cli.fault_path << ": "
                << err << "\n";
      return 2;
    }
    fault_plan = std::move(*loaded);
    if (!fault_plan.empty()) {
      channel = std::make_unique<fault::ChannelModel>(fault_plan);
      scheduler->attachChannel(channel.get());
    }
  }

  // The invariant oracle.  Expectations are per-algorithm: Colorwave's raw
  // color classes legitimately propose infeasible sets, and schedulers that
  // stall pre-convergence or run over a lossy control plane are exempt from
  // the strict greedy-progress postcondition.  The multi-channel scheduler's
  // proposals carry their channels, so the oracle judges its feasibility
  // and weight in its own channel model.  Verdicts print to stderr so stdout stays byte-identical
  // to an unchecked run.
  check::ScheduleValidator validator = [&]() {
    check::CheckOptions co;
    co.level = cli.check_paranoid ? check::CheckLevel::kParanoid
                                  : check::CheckLevel::kNormal;
    co.expect_feasible = cli.algo != "ca";
    const bool lossy_control =
        channel != nullptr && (cli.algo == "alg3" || cli.algo == "ca");
    co.expect_exact_weight = !lossy_control;
    co.expect_progress = cli.algo == "alg1" || cli.algo == "alg2" ||
                         cli.algo == "ghc" || cli.algo == "exact" ||
                         (cli.algo == "alg3" && channel == nullptr);
    // One-shot decisions are not refereed through the fault plan, so the
    // oracle only mirrors it in mcs mode.
    if (!fault_plan.empty() && cli.mode == "mcs") co.faults = &fault_plan;
    co.metrics = metrics;
    co.trace = trace;
    return check::ScheduleValidator(co);
  }();

  // Every telemetry sink in one place: the happy path and every early exit
  // (budget exit 3, checkpoint-integrity exit 4, invariant-violation exit 5)
  // flush through here, so a failed run still leaves its metrics, spans, and
  // cost ledger behind for rfidsched_report.  Returns 0 or the exit code.
  const auto flushTelemetry = [&]() -> int {
    if (!cli.metrics_path.empty()) {
      if (registry.writeJsonFile(cli.metrics_path)) {
        std::cout << "metrics written to " << cli.metrics_path << '\n';
      } else {
        std::cerr << "failed to write metrics to " << cli.metrics_path << "\n";
        return 2;
      }
    }
    if (!cli.prom_path.empty()) {
      if (registry.writePrometheusFile(cli.prom_path)) {
        std::cout << "prometheus metrics written to " << cli.prom_path << '\n';
      } else {
        std::cerr << "failed to write prometheus metrics to " << cli.prom_path
                  << "\n";
        return 2;
      }
    }
    if (!cli.trace_path.empty()) {
      if (sink.writeChromeTraceFile(cli.trace_path)) {
        std::cout << "trace written to " << cli.trace_path << '\n';
      } else {
        std::cerr << "failed to write trace to " << cli.trace_path << "\n";
        return 2;
      }
    }
    if (!cli.jsonl_path.empty()) {
      if (sink.writeJsonlFile(cli.jsonl_path)) {
        std::cout << "jsonl events written to " << cli.jsonl_path << '\n';
      } else {
        std::cerr << "failed to write jsonl to " << cli.jsonl_path << "\n";
        return 2;
      }
    }
    if (!cli.cost_path.empty()) {
      if (ledger.writeJsonFile(cli.cost_path)) {
        std::cout << "cost attribution written to " << cli.cost_path << '\n';
      } else {
        std::cerr << "failed to write cost ledger to " << cli.cost_path
                  << "\n";
        return 2;
      }
    }
    return 0;
  };

  std::cout << "deployment: " << sys.numReaders() << " readers, "
            << sys.numTags() << " tags (" << sys.unreadCoverableCount()
            << " coverable), layout " << cli.layout << ", seed " << cli.seed
            << "\ninterference graph: " << g.numEdges()
            << " edges, max degree " << g.maxDegree() << "\nalgorithm: "
            << scheduler->name() << "\n\n";

  // The streaming index oracle (stream mode only; constructed up here so the
  // shared check verdict at the bottom can read its counters and issues).
  check::IncrementalIndexOracle oracle([&]() {
    check::IndexOracleOptions oo;
    oo.every_epochs = cli.oracle_every;
    oo.paranoid = cli.check_paranoid;
    // Only stream mode drives the oracle; registering its counters in the
    // static modes would pollute their metrics exports with dead zeros.
    oo.metrics = cli.mode == "stream" ? metrics : nullptr;
    oo.trace = cli.mode == "stream" ? trace : nullptr;
    return oo;
  }());

  bool interrupted = false;
  bool check_failed = false;
  // Gen2 link co-simulation verdict (empty = ok); escalates to exit 5
  // under --check, a warning otherwise.
  std::string link_fail_detail;

  // The mcs and stream modes run the same MCS slot loop: they share its
  // options, the journal setup, and the run's chatter.
  const auto fillLoopOptions = [&](sched::McsLoopOptions& o) {
    o.metrics = metrics;
    o.trace = trace;
    o.cost = cost;
    if (!fault_plan.empty()) {
      o.faults = &fault_plan;
      o.channel = channel.get();
    }
    if (cli.deadline_ms >= 0) {
      budget.setDeadline(std::chrono::milliseconds(cli.deadline_ms));
    }
    if (cli.max_slots > 0) budget.setSlotCap(cli.max_slots);
    // Always attached: the budget also carries the signal-cancel token, and
    // an unarmed, unfired budget never changes the driver's behavior.
    o.budget = &budget;
  };
  ckpt::CheckpointSetup setup;
  setup.path = cli.ckpt_path;
  setup.resume = cli.resume;
  setup.seed = cli.seed;
  // Checkpoint and budget chatter goes to stderr: stdout must stay
  // byte-comparable between a resumed run and an uninterrupted one.  False
  // when the journal failed closed (exit 4).
  const auto reportRun = [&](const auto& run) {
    if (!run.ok) {
      std::cerr << "checkpoint error: " << run.error << "\n";
      flushTelemetry();  // best-effort: the partial run's evidence still lands
      return false;
    }
    if (run.resumed) {
      std::cerr << "resumed " << cli.ckpt_path << ": " << run.replayed_slots
                << " committed slots replayed and verified\n";
    }
    const sched::McsLoopResult& res = run.result;
    if (res.interrupted) {
      interrupted = true;
      std::cerr << "run interrupted ("
                << (service::stopSignal() != 0 ? "signal"
                                               : sched::mcsStopName(res.stop))
                << ") after " << res.slots << " committed slots";
      if (!cli.ckpt_path.empty()) std::cerr << "; resume with --resume";
      std::cerr << "\n";
    }
    return true;
  };
  const auto printDegradation = [&](const sched::McsLoopResult& res) {
    if (fault_plan.empty()) return;
    const sched::McsDegradation& d = res.degradation;
    std::cout << "degradation: " << d.faulty_slots << " faulty slots ("
              << d.slots_lost << " lost), " << d.crashed_activations
              << " crashed activations, " << d.replanned_activations
              << " re-planned, " << d.tags_missed << " tags missed, "
              << d.tags_orphaned << " orphaned; coverage " << res.tags_read
              << " achieved vs " << d.ideal_tags_read << " ideal\n";
  };

  if (cli.mode == "oneshot") {
    obs::ScopedTimer run_span(metrics, "cli.run_us", trace, "cli.oneshot");
    const sched::OneShotResult res = scheduler->schedule(sys);
    run_span.stop();
    if (cli.check) {
      // One decision, validated like one slot: CSR audit, feasibility and
      // claimed weight from raw geometry, served set by the naive scan.
      if (validator.beginRun(sys)) {
        const std::vector<int> served =
            sys.wellCoveredTags(res.readers, {}, res.channel);
        validator.checkSlot(sys, 0, res, res.readers, {}, served);
      }
      check_failed = !validator.ok();
    }
    std::cout << "one-shot: " << res.readers.size()
              << " readers active, weight " << res.weight << "\nreaders:";
    for (const int v : res.readers) std::cout << ' ' << v;
    std::cout << '\n';
    if (!cli.svg_path.empty() &&
        analysis::writeSvgFile(cli.svg_path, sys, res.readers)) {
      std::cout << "svg written to " << cli.svg_path << '\n';
    }
  } else if (cli.mode == "mcs") {
    if (!cli.svg_path.empty()) {
      const sched::OneShotResult first = scheduler->schedule(sys);
      if (analysis::writeSvgFile(cli.svg_path, sys, first.readers)) {
        std::cout << "first-slot svg written to " << cli.svg_path << '\n';
      }
    }
    sched::McsOptions mcs_opt;
    fillLoopOptions(mcs_opt);
    if (cli.check) mcs_opt.validator = &validator;
    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, *scheduler, mcs_opt, setup);
    if (!reportRun(run)) return 4;
    const sched::McsResult& res = run.result;
    check_failed = cli.check &&
                   (res.stop == sched::McsStop::kCheckFailed || !validator.ok());
    std::cout << "covering schedule: " << res.slots << " slots, "
              << res.tags_read << " tags read, " << res.uncoverable
              << " uncoverable, "
              << (res.completed ? "completed" : "INCOMPLETE") << '\n';
    printDegradation(res);
    for (std::size_t i = 0; i < res.schedule.size() && i < 25; ++i) {
      std::cout << "  slot " << i + 1 << ": "
                << res.schedule[i].active.size() << " readers, "
                << res.schedule[i].tags_read << " tags\n";
    }
    if (res.schedule.size() > 25) {
      std::cout << "  ... (" << res.schedule.size() - 25 << " more slots)\n";
    }
    if (cli.link != "unit") {
      // Replay the committed schedule under the selected link model and
      // convert macro-slots into air-time (docs/protocol.md).  The replay
      // re-marks the system's read-state, which nothing below consumes.
      protocol::LinkOptions lo;
      protocol::parseLink(cli.link, lo.link);
      lo.gen2 = buildGen2Options(cli);
      lo.metrics = metrics;
      const protocol::LinkTimingResult lt = protocol::timeScheduleLink(
          sys, res, lo, workload::Rng(cli.seed).split("link"));
      std::cout << "link " << linkConfigStr(cli) << ": schedule "
                << secondsStr(lt.air_us) << " s air-time (serial "
                << secondsStr(lt.air_us_serial) << " s), " << lt.micro_slots
                << " micro-slots over " << lt.macro_slots << " macro-slots\n";
      if (lo.link == protocol::Link::kGen2) {
        std::cout << "gen2: " << lt.tags_read << " fresh reads, "
                  << lt.stale_repliers << " stale repliers, "
                  << lt.session_skips << " session skips, " << lt.frames
                  << " frames\n";
        if (!lt.check_ok) link_fail_detail = lt.check_detail;
      }
    }
  } else if (cli.mode == "stream") {
    workload::ChurnTrace churn;
    if (!cli.churn_path.empty()) {
      std::string err;
      auto loaded = workload::loadChurnTraceFile(cli.churn_path, &err);
      if (!loaded) {
        std::cerr << "failed to load churn trace from " << cli.churn_path
                  << ": " << err << "\n";
        return 2;
      }
      churn = std::move(*loaded);
    } else {
      workload::ChurnConfig cc;
      cc.arrival_rate = cli.arrival_rate;
      cc.depart_rate = cli.depart_rate;
      cc.move_rate = cli.move_rate;
      cc.slots = cli.stream_slots;
      cc.region_side = cli.side;
      cc.burst_multiplier = cli.burst;
      cc.burst_enter = cli.burst_enter;
      cc.burst_exit = cli.burst_exit;
      churn = workload::makeChurnTrace(cc, sys.numTags(), cli.seed);
    }
    if (!cli.save_churn_path.empty()) {
      if (!workload::saveChurnTraceFile(cli.save_churn_path, churn)) {
        std::cerr << "failed to save churn trace to " << cli.save_churn_path
                  << "\n";
        return 2;
      }
      std::cout << "churn trace saved to " << cli.save_churn_path << '\n';
    }

    sched::StreamingOptions st_opt;
    fillLoopOptions(st_opt);
    st_opt.oracle = &oracle;
    st_opt.fail_on_divergence = cli.check;
    st_opt.max_backlog = cli.max_backlog;
    st_opt.shed_policy = cli.shed_policy == "largest"
                             ? service::ShedPolicy::kRejectLargest
                             : service::ShedPolicy::kRejectNewest;
    st_opt.shed_after_slots = cli.shed_after;
    // Online gen2 co-simulation rides the driver's commit hook — every
    // committed busy slot (including replayed ones on resume) is arbitrated
    // as it lands, over the tags it served, with session flags carried
    // across slots.
    std::unique_ptr<protocol::Gen2LinkTimer> link_timer;
    if (cli.link == "gen2") {
      link_timer = std::make_unique<protocol::Gen2LinkTimer>(
          sys, buildGen2Options(cli), workload::Rng(cli.seed).split("link"));
      st_opt.on_commit = [&link_timer](int slot, std::span<const int> active,
                                       std::span<const int> served) {
        link_timer->onSlot(slot, active, served,
                           static_cast<int>(served.size()));
      };
    }
    const sched::StreamingCheckpointedRun run =
        sched::runStreamingCheckpointed(sys, *scheduler, churn, st_opt, setup);
    if (!reportRun(run)) return 4;
    const sched::StreamingResult& res = run.result;
    check_failed =
        cli.check && (res.stop == sched::McsStop::kCheckFailed || !oracle.ok());
    std::cout << "streaming schedule: " << res.stream_slots
              << " stream slots (" << res.slots << " busy, " << res.idle_slots
              << " idle), " << res.tags_read << " tags read, "
              << res.uncoverable << " uncoverable, "
              << (res.drained ? "drained" : "NOT DRAINED") << '\n';
    std::cout << "churn: " << res.arrived << " arrived, " << res.departed
              << " departed, " << res.moved << " moved";
    if (res.skipped_events > 0) {
      std::cout << ", " << res.skipped_events << " events skipped";
    }
    std::cout << '\n';
    std::cout << "overload: backlog peak " << res.backlog_peak << ", shed "
              << res.shed << " (backlog) + " << res.shed_aged << " (aged)\n";
    std::cout << "service: latency p50 " << res.latency_p50 << " / p99 "
              << res.latency_p99 << " slots, " << res.tags_per_sec
              << " tags/sec\n";
    if (link_timer != nullptr) {
      const protocol::LinkTimingResult& lt = link_timer->result();
      link_timer->flushMetrics(metrics);
      std::cout << "link " << linkConfigStr(cli) << ": schedule "
                << secondsStr(lt.air_us) << " s air-time (serial "
                << secondsStr(lt.air_us_serial) << " s), " << lt.micro_slots
                << " micro-slots over " << lt.macro_slots << " busy slots\n";
      std::cout << "gen2: " << lt.identified << " tags identified, "
                << lt.session_skips << " session skips, " << lt.frames
                << " frames\n";
      if (!lt.check_ok) link_fail_detail = lt.check_detail;
    }
    if (oracle.checks() > 0 || oracle.divergences() > 0) {
      std::cerr << "index oracle: " << oracle.checks() << " checks, "
                << oracle.divergences() << " divergences, " << oracle.heals()
                << " heals\n";
    }
    printDegradation(res);
  } else {
    std::cerr << "invalid value for --mode: " << cli.mode << "\n";
    usage();
    return 2;
  }

  if (const int rc = flushTelemetry(); rc != 0) return rc;
  if (!link_fail_detail.empty()) {
    // Gen2 co-simulation invariants (round completion, no double acks, no
    // re-identification inside the persistence window) are part of the
    // --check contract; without --check they still warn.
    std::cerr << "check: "
              << (cli.check ? "FAILED — " : "warning (link, unchecked) — ")
              << link_fail_detail << "\n";
    if (cli.check) return 5;
  }
  if (cli.check) {
    if (check_failed) {
      if (cli.mode == "stream") {
        std::cerr << "check: FAILED — " << oracle.divergences()
                  << " index divergences (" << oracle.heals() << " healed)\n";
        for (const check::CheckIssue& is : oracle.issues()) {
          std::cerr << "  [slot " << is.slot << "] " << is.invariant << ": "
                    << is.detail << "\n";
        }
      } else {
        validator.report(std::cerr);
      }
      return 5;
    }
    if (cli.mode == "stream") {
      std::cerr << "check: ok (" << oracle.checks()
                << " index verifications)\n";
    } else {
      std::cerr << "check: ok (" << validator.slotsChecked()
                << " slots validated)\n";
    }
  }
  // A signal that landed too late to interrupt the run (or mid-oneshot,
  // where the scheduler returned its best-so-far set) still reports the
  // interrupted exit so wrappers can tell a kill from a clean finish.
  return interrupted || service::stopSignal() != 0 ? 3 : 0;
}
