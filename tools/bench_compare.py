#!/usr/bin/env python3
"""bench_compare.py — record the fixed bench points and gate them.

    tools/bench_compare.py --record BUILD [--baseline PATH] [--save LABEL]
    tools/bench_compare.py --selftest [--baseline PATH]

The history file (default BENCH_HISTORY.json at the repo root) maps
label -> point -> {value name: number}, labels in the order they were
recorded.  --record runs every point below against the binaries under BUILD
and gates the run against the newest label with one rule table (RULES): the
first rule whose point and value patterns match decides the class.

  advisory  machine-dependent values (wall, build and link times, RSS, latency,
            throughput, every micro-benchmark and saturation value): a drift
            beyond 25% warns and never fails.
  work      search effort: growth beyond 2% fails, a zero must stay zero, a
            decrease prints as an improvement.
  exact     everything else (slots, tags read, service, stream and check
            outcomes, the Gen2 replay): any change fails.

A point or value the baseline has but the run lacks fails; one the baseline
lacks prints as new.  --save LABEL appends the run to the history after the
comparison prints, whatever the verdict, so an intended change to an exact
value lands as a reviewed diff of the history file.

--selftest needs no binaries.  It seeds each value of the newest label one at
a time (work: v*1.05+1; exact: v+1 and v-1; advisory: v*2, or 1 for a zero),
drops each point and each value, and requires every seed to draw its rule's
verdict; an unchanged copy must pass with no warning.

Exit codes: 0 gate passed; 1 regression or selftest failure; 2 bad usage or a
bench binary failed.
"""
import argparse
import fnmatch
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_GROWTH = 0.02
ADVISORY_DRIFT = 0.25

# (class, point pattern, value patterns): the first match wins; a value no
# rule matches is exact.
RULES = (
    ("advisory", "micro/*", ("*",)),
    ("advisory", "service/saturation/*", ("*",)),
    ("advisory", "*", ("wall_ms", "build_ms", "link_ms", "rss_mib",
                       "elapsed_s", "p50_ms", "p99_ms", "throughput_rps",
                       "capacity_rps")),
    ("work", "*", ("sched.weight_evals", "sched.candidates",
                   "core.weight_evals", "cost.*", "work_units")),
    ("work", "large/*", ("weight_evals",)),
)

# The fixed bench points: each parameter lives only here.
CLI_N2000 = ("--algo", "alg2", "--mode", "mcs", "--readers", "2000",
             "--tags", "48000", "--side", "632.455", "--seed", "7")
# Later flags win, so cli/mc runs the same deployment under the channeled
# climb.
CLI_MODES = {"cli/default": (), "cli/single_thread": ("--threads", "1"),
             "cli/mc": ("--algo", "mc", "--channels", "2")}
CLI_COUNTERS = ("sched.weight_evals", "sched.schedule_calls",
                "core.weight_evals", "mcs.slots", "mcs.tags_read")
MICRO_FILTER = ("BM_(SystemConstruction|SystemBuild|WeightEvaluation|"
                "WeightEvaluatorPushPop|GreedySelection)")
SERVICE_POINT = ("--mode", "bench", "--requests", "32", "--concurrency", "8",
                 "--workers", "2", "--queue", "16", "--readers", "30",
                 "--tags", "600", "--side", "80", "--seed", "11",
                 "--duration-s", "2",
                 "--fault", os.path.join(HERE, "soak_fault.plan"))
STREAM_POINT = ("--mode", "stream", "--algo", "alg2", "--readers", "200",
                "--tags", "4000", "--side", "120", "--seed", "17",
                "--arrival-rate", "10", "--depart-rate", "3",
                "--move-rate", "3", "--stream-slots", "80", "--burst", "10",
                "--burst-enter", "0.1", "--burst-exit", "0.25",
                "--max-backlog", "300", "--shed-after", "30",
                "--oracle-every", "16")
# CostBill::workUnits(): the search terms of the cost ledger.
COST_WORK = ("weight_evals", "queue_work", "dp_entries", "bnb_nodes")


@functools.cache
def rule(point, name):
    for cls, point_pat, name_pats in RULES:
        if fnmatch.fnmatchcase(point, point_pat) and any(
                fnmatch.fnmatchcase(name, p) for p in name_pats):
            return cls
    return "exact"


def judge(point, name, b, c):
    """Returns the tag for one value: FAIL, WARN, improved, drift or ok."""
    cls = rule(point, name)
    if cls == "advisory":
        return "WARN" if abs(c - b) > ADVISORY_DRIFT * abs(b) else "drift"
    if cls == "work":
        if c > b * (1 + WORK_GROWTH):
            return "FAIL"
        return "improved" if c < b else "ok"
    return "FAIL" if c != b else "ok"


def compare(base, cur):
    """Gates run `cur` against baseline `base`, both point -> {name: value}.

    Returns (failures, warnings, lines); `lines` lists every value that
    changed and every new point or value."""
    failures, warnings, lines = [], [], []
    for point, b_vals in base.items():
        c_vals = cur.get(point)
        if c_vals is None:
            failures.append(f"{point}: point not recorded by this run")
            continue
        for name, b in b_vals.items():
            if name not in c_vals:
                failures.append(f"{point} {name}: not recorded by this run")
                continue
            c = c_vals[name]
            tag = judge(point, name, b, c)
            text = f"{point} {name}: {b} -> {c}"
            if b and c != b:
                text += f" ({(c - b) / b:+.1%})"
            if tag == "FAIL":
                failures.append(f"{text} [{rule(point, name)}]")
            elif tag == "WARN":
                warnings.append(f"{text} [advisory]")
            if c != b:
                lines.append(f"  [{tag}] {text}")
        lines += [f"  [new] {point} {n}: {c_vals[n]}"
                  for n in c_vals if n not in b_vals]
    lines += [f"  [new] {p}: {len(v)} values"
              for p, v in cur.items() if p not in base]
    return failures, warnings, lines


def run(cmd):
    """Runs one bench command; returns (stdout, wall ms)."""
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True,
                         text=True).stdout
    return out, round((time.perf_counter() - t0) * 1000)


def number(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def kv_lines(text, prefix):
    """Parses each `<prefix> k=v k=v ...` line of a bench's stdout."""
    return [{k: number(v) for k, _, v in (kv.partition("=")
                                          for kv in line.split()[1:])}
            for line in text.splitlines() if line.startswith(prefix + " ")]


def cost_values(path):
    """Flattens a --cost ledger: cost.<field> per total, the slot count, and
    the work-unit sum."""
    ledger = json.load(open(path))
    total = ledger["total"]
    values = {f"cost.{k}": v for k, v in total.items()}
    values["cost.slots"] = len(ledger["slots"])
    values["cost.work_units"] = sum(total[k] for k in COST_WORK)
    return values


def record(build):
    """Runs every fixed point against BUILD; returns point -> {name: value}."""
    def exe(*parts):
        return os.path.join(build, *parts)

    cli = exe("tools", "rfidsched_cli")
    points = {}
    with tempfile.TemporaryDirectory() as td:
        metrics, cost = os.path.join(td, "m.json"), os.path.join(td, "c.json")
        obs = ("--metrics", metrics, "--cost", cost)
        for point, extra in CLI_MODES.items():
            _, ms = run([cli, *CLI_N2000, *extra, *obs])
            counters = json.load(open(metrics))["counters"]
            points[point] = {"wall_ms": ms, **cost_values(cost), **{
                k: counters[k] for k in CLI_COUNTERS if k in counters}}

        out, _ = run([exe("bench", "scaling_n"), "2"])
        mcs = out.split("# MCS covering schedule", 1)[-1]
        for n, algo, slots, tags, ms in re.findall(
                r"^(\d+)\s+(\w+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$", mcs,
                re.M):
            points[f"scaling/{algo}/n{n}"] = {
                "slots": number(slots), "tags_read": number(tags),
                "wall_ms": float(ms)}

        out, _ = run([exe("bench", "micro_core"), "--benchmark_format=json",
                      f"--benchmark_filter={MICRO_FILTER}"])
        for bm in json.loads(out)["benchmarks"]:
            points[f"micro/{bm['name']}"] = {"ns": round(bm["real_time"], 1)}

        out, _ = run([exe("tools", "rfidsched_load"), *SERVICE_POINT])
        svc = json.loads(out)
        closed = svc["service_closed_loop"]
        points["service/closed"] = {**closed["counters"], **closed["summary"],
                                    "capacity_rps": svc["capacity_rps"]}
        for sat in svc["service_saturation"]:
            points[f"service/saturation/x{sat['factor']:g}"] = {
                "rate_rps": sat["rate_rps"], "shed": sat["shed"],
                **sat["stats"]}

        _, ms = run([cli, *STREAM_POINT, *obs])
        m = json.load(open(metrics))
        points["stream/churn"] = {
            "wall_ms": ms, **cost_values(cost),
            **{k: v for k, v in m["counters"].items()
               if k.startswith(("stream.", "check.", "mcs.", "sched."))},
            **{k: v for k, v in m["gauges"].items()
               if k.startswith("stream.")}}

    out, _ = run([exe("bench", "gen2_variants"), "2"])
    for p in kv_lines(out, "gen2point"):
        points[f"gen2/{p.pop('variant')}/{p.pop('seed')}"] = p

    out, _ = run([exe("bench", "scaling_n"), "--large"])
    for p in kv_lines(out, "large"):
        del p["algo"]
        points[f"large/n{p.pop('n')}"] = p
    return {p: dict(sorted(v.items())) for p, v in points.items()}


def selftest(label, base):
    """Every seed must draw the verdict its rule promises."""
    def verdict(point, name=None, value=None):
        cur = dict(base)
        if name is None:
            del cur[point]
        else:
            cur[point] = dict(base[point])
            if value is None:
                del cur[point][name]
            else:
                cur[point][name] = value
        failures, warnings, _ = compare(base, cur)
        return "fail" if failures else "warn" if warnings else "pass"

    counts = dict.fromkeys(("work", "exact", "advisory", "dropped point",
                            "dropped value"), 0)
    missed = []
    for point, values in base.items():
        seeds = [("dropped point", None, None, "fail")]
        for name, v in values.items():
            seeds.append(("dropped value", name, None, "fail"))
            cls = rule(point, name)
            if cls == "work":
                seeds.append((cls, name, v * 1.05 + 1, "fail"))
            elif cls == "exact":
                seeds += [(cls, name, v + 1, "fail"),
                          (cls, name, v - 1, "fail")]
            else:
                seeds.append((cls, name, v * 2 or 1, "warn"))
        for kind, name, value, want in seeds:
            counts[kind] += 1
            got = verdict(point, name, value)
            if got != want:
                missed.append(f"{kind} {point} {name}={value}: {got}, "
                              f"expected {want}")
    clean = compare(base, {p: dict(v) for p, v in base.items()})
    ok = not missed and not clean[0] and not clean[1]
    for m in missed:
        print(f"  not flagged: {m}")
    print(f"selftest on '{label}': {sum(counts.values())} seeds ("
          + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f"), {len(missed)} not flagged; clean copy: {len(clean[0])} "
          f"failures, {len(clean[1])} warnings — "
          + ("OK" if ok else "BROKEN GATE"))
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", metavar="PATH",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCH_HISTORY.json"),
                    help="history file (default: BENCH_HISTORY.json)")
    ap.add_argument("--record", metavar="BUILD",
                    help="run every point against this build dir and gate it")
    ap.add_argument("--save", metavar="LABEL",
                    help="append the recorded run to the history as LABEL")
    ap.add_argument("--selftest", action="store_true",
                    help="prove every rule flags its seeds; needs no build")
    args = ap.parse_args()
    if args.selftest == bool(args.record) or (args.save and not args.record):
        ap.error("give --record BUILD [--save LABEL], or --selftest")
    try:
        with open(args.baseline) as f:
            history = json.load(f)
        label, base = list(history.items())[-1]
    except (OSError, ValueError, IndexError) as e:
        print(f"cannot load a baseline from {args.baseline}: {e}",
              file=sys.stderr)
        return 2
    if args.selftest:
        return 0 if selftest(label, base) else 1
    if args.save in history:
        print(f"label '{args.save}' already in {args.baseline}",
              file=sys.stderr)
        return 2

    try:
        cur = record(args.record)
    except (OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        print(f"recording failed: {e}", file=sys.stderr)
        return 2
    failures, warnings, lines = compare(base, cur)
    gated = sum(rule(p, n) != "advisory" for p, v in base.items() for n in v)
    print(f"bench_compare: {args.record} vs {args.baseline} [{label}]")
    for line in lines:
        print(line)
    if warnings:
        print(f"warning: {len(warnings)} advisory value(s) drifted beyond "
              f"{ADVISORY_DRIFT:.0%}; machine-dependent, they never fail")
    if args.save:
        history[args.save] = cur
        with open(args.baseline, "w") as f:
            json.dump(history, f, indent=2)
            f.write("\n")
        print(f"saved the run as '{args.save}' in {args.baseline}")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) against '{label}':")
        print("\n".join(f"  {f}" for f in failures))
        return 1
    print(f"\nPASS: {gated} gated values hold against '{label}'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
