#!/bin/sh
# bench_record.sh — record one labelled point of the perf trajectory.
#
#   tools/bench_record.sh <build-dir> <label> [out.json]
#
# Runs the fixed-seed perf workloads (bench/scaling_n with its MCS-at-scale
# section, bench/micro_core, timed rfidsched_cli MCS runs at n = 2000, and —
# when the daemon tools are built — the rfidsched_load service saturation
# bench: a closed-loop capacity probe plus a 0.5x/1x/2x open-loop sweep
# recording req/s, p50/p99 latency, and shed counts under the soak fault
# plan) and merges the wall-clock numbers plus the sched.*/core.*/svc.* work
# counters into <out.json> (default BENCH_PR4.json) under <label>.  When the binary
# supports --cost, the deterministic cost-attribution counters (total work
# units plus the full per-field bill) ride along under "cost" — these are
# what tools/bench_compare.py gates on, since they cannot jitter.  Run it
# once on the pre-change build and once per mode on the post-change build;
# the JSON then holds the before/after trajectory side by side
# (docs/performance.md explains how to read it).
#
# CLI mode flags (--threads) that the binary under test does not support are
# skipped, so the same script runs against any library version.
set -eu

BUILD_DIR=${1:?usage: bench_record.sh <build-dir> <label> [out.json]}
LABEL=${2:?usage: bench_record.sh <build-dir> <label> [out.json]}
OUT=${3:-BENCH_PR4.json}

SCALING="$BUILD_DIR/bench/scaling_n"
MICRO="$BUILD_DIR/bench/micro_core"
CLI="$BUILD_DIR/tools/rfidsched_cli"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== scaling_n (2 seeds) =="
"$SCALING" 2 > "$TMP/scaling.txt"
sed -n '/# MCS covering schedule/,$p' "$TMP/scaling.txt"

echo "== micro_core =="
"$MICRO" --benchmark_format=json \
  --benchmark_filter='BM_(SystemConstruction|SystemBuild|WeightEvaluation|WeightEvaluatorPushPop|GreedySelection)' \
  > "$TMP/micro.json" 2> /dev/null

# Large-scale sweep (PR9): full alg2 MCS at n = 20k/50k/100k readers, up to
# 1M tags.  Minutes-long, so opt-in: RFIDSCHED_BENCH_LARGE=1.  The emitted
# key=value lines (wall, peak RSS, referee/selection work counters) are
# scraped into "large_mcs"; tools/bench_compare.py gates the deterministic
# fields (slots/tags/completed and the work counters) and treats wall/RSS
# as advisory.
if [ "${RFIDSCHED_BENCH_LARGE:-0}" = "1" ]; then
  echo "== scaling_n --large (n up to 100k; this takes minutes) =="
  "$SCALING" --large > "$TMP/large.txt"
  grep '^large ' "$TMP/large.txt" || true
fi

# Timed CLI MCS runs: wall clock for the whole invocation plus the work
# counters from --metrics.  Modes beyond "default" need the post-PR flags.
cli_run() {
  mode=$1; shift
  cost_flag=""
  # Probe --cost support so the script still runs pre-PR6 binaries.
  if "$CLI" --cost 2>&1 | grep -q "missing value"; then
    cost_flag="--cost $TMP/c_$mode.json"
  fi
  start=$(date +%s%N)
  if "$CLI" --algo alg2 --mode mcs --readers 2000 --tags 48000 \
      --side 632.455 --seed 7 --metrics "$TMP/m_$mode.json" $cost_flag "$@" \
      > "$TMP/cli_$mode.txt" 2>&1; then
    end=$(date +%s%N)
    echo "$mode $(( (end - start) / 1000000 ))" >> "$TMP/cli_times.txt"
    echo "== cli alg2 n=2000 [$mode]: $(( (end - start) / 1000000 )) ms =="
  else
    echo "== cli alg2 n=2000 [$mode]: unsupported by this binary, skipped =="
  fi
}
: > "$TMP/cli_times.txt"
cli_run default
cli_run single_thread --threads 1

# Service saturation point (PR7): closed-loop capacity probe plus the
# 0.5x/1x/2x open-loop sweep (req/s vs p50/p99 latency and shed rate),
# under the soak fault plan.  Skipped when the binary predates the daemon.
LOAD="$BUILD_DIR/tools/rfidsched_load"
if [ -x "$LOAD" ]; then
  echo "== service bench (closed-loop probe + saturation sweep) =="
  "$LOAD" --mode bench --requests 32 --concurrency 8 --workers 2 --queue 16 \
    --readers 30 --tags 600 --side 80 --seed 11 --duration-s 2 \
    --fault "$(dirname "$0")/soak_fault.plan" > "$TMP/service.json"
  python3 -m json.tool "$TMP/service.json" > /dev/null
else
  echo "== service bench: rfidsched_load not built, skipped =="
fi

# Streaming churn point (PR8): one fixed bursty trace through the streaming
# MCS driver with overload control and the incremental-index oracle on.
# Everything recorded here — stream.*/check.* counters, the latency
# percentiles (in slots), and the cost ledger — is deterministic in
# (deployment, seed, trace), so tools/bench_compare.py gates on it.
# Parameters must match STREAM_POINT in bench_compare.py.
echo "== stream churn point =="
stream_start=$(date +%s%N)
if "$CLI" --mode stream --algo alg2 --readers 200 --tags 4000 --side 120 \
    --seed 17 --arrival-rate 10 --depart-rate 3 --move-rate 3 \
    --stream-slots 80 --burst 10 --burst-enter 0.1 --burst-exit 0.25 \
    --max-backlog 300 --shed-after 30 --oracle-every 16 \
    --metrics "$TMP/stream_m.json" --cost "$TMP/stream_c.json" \
    > "$TMP/stream.txt" 2>&1; then
  stream_end=$(date +%s%N)
  echo "$(( (stream_end - stream_start) / 1000000 ))" > "$TMP/stream_ms.txt"
  sed -n '/^streaming schedule/,/^index oracle/p' "$TMP/stream.txt"
else
  echo "== stream point: unsupported by this binary, skipped =="
fi

# Gen2 link-variant point (PR10): a fixed Alg2 schedule replayed under every
# link model.  Each `gen2point` line is fully deterministic in (deployment
# seed, link config) — air_us / micro / macro / tags / skips are exact-match
# gated by tools/bench_compare.py and double_id is zero-stays-zero.
GEN2="$BUILD_DIR/bench/gen2_variants"
if [ -x "$GEN2" ]; then
  echo "== gen2 link variants (2 seeds) =="
  "$GEN2" 2 > "$TMP/gen2.txt"
  grep '^gen2point ' "$TMP/gen2.txt" || true
  tail -2 "$TMP/gen2.txt"
else
  echo "== gen2 variants: bench not built, skipped =="
fi

python3 - "$TMP" "$LABEL" "$OUT" <<'EOF'
import json, re, sys, os
tmp, label, out = sys.argv[1], sys.argv[2], sys.argv[3]

entry = {"scaling_n_mcs": [], "micro_core": {}, "cli_mcs_n2000": {}}

in_mcs = False
for line in open(os.path.join(tmp, "scaling.txt")):
    if line.startswith("# MCS covering schedule"):
        in_mcs = True
        continue
    if not in_mcs:
        continue
    m = re.match(r"\s*(\d+)\s+(\w+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)", line)
    if m:
        entry["scaling_n_mcs"].append({
            "n": int(m.group(1)), "algo": m.group(2),
            "slots": float(m.group(3)), "tags_read": float(m.group(4)),
            "ms": float(m.group(5))})

micro = json.load(open(os.path.join(tmp, "micro.json")))
for b in micro.get("benchmarks", []):
    entry["micro_core"][b["name"]] = round(b["real_time"], 1)

for line in open(os.path.join(tmp, "cli_times.txt")):
    mode, ms = line.split()
    run = {"wall_ms": int(ms)}
    mpath = os.path.join(tmp, f"m_{mode}.json")
    if os.path.exists(mpath):
        counters = json.load(open(mpath)).get("counters", {})
        for k in ("sched.weight_evals", "sched.schedule_calls",
                  "core.weight_evals", "mcs.slots", "mcs.tags_read"):
            if k in counters:
                run[k] = counters[k]
    cpath = os.path.join(tmp, f"c_{mode}.json")
    if os.path.exists(cpath):
        cost = json.load(open(cpath))
        total = cost.get("total", {})
        if total:
            run["cost"] = {
                "work_units": (total.get("weight_evals", 0)
                               + total.get("queue_work", 0)
                               + total.get("dp_entries", 0)
                               + total.get("bnb_nodes", 0)),
                "total": total,
                "slots": len(cost.get("slots", [])),
            }
    entry["cli_mcs_n2000"][mode] = run

lpath = os.path.join(tmp, "large.txt")
if os.path.exists(lpath):
    large = []
    for line in open(lpath):
        if not line.startswith("large "):
            continue
        point = {}
        for kv in line.split()[1:]:
            k, _, v = kv.partition("=")
            try:
                point[k] = int(v)
            except ValueError:
                try:
                    point[k] = float(v)
                except ValueError:
                    point[k] = v
        large.append(point)
    if large:
        entry["large_mcs"] = large

spath = os.path.join(tmp, "service.json")
if os.path.exists(spath):
    entry["service"] = json.load(open(spath))

smpath = os.path.join(tmp, "stream_m.json")
if os.path.exists(smpath):
    metrics = json.load(open(smpath))
    counters = {k: v for k, v in metrics.get("counters", {}).items()
                if k.startswith(("stream.", "check.", "mcs.", "sched."))}
    summary = {k: v for k, v in metrics.get("gauges", {}).items()
               if k.startswith("stream.")}
    stream = {"counters": counters, "summary": summary}
    with open(os.path.join(tmp, "stream_ms.txt")) as f:
        stream["wall_ms"] = int(f.read().strip())
    scpath = os.path.join(tmp, "stream_c.json")
    if os.path.exists(scpath):
        total = json.load(open(scpath)).get("total", {})
        if total:
            stream["cost"] = {
                "work_units": (total.get("weight_evals", 0)
                               + total.get("queue_work", 0)
                               + total.get("dp_entries", 0)
                               + total.get("bnb_nodes", 0)),
                "total": total,
            }
    entry["stream_churn"] = stream

gpath = os.path.join(tmp, "gen2.txt")
if os.path.exists(gpath):
    points = []
    for line in open(gpath):
        if not line.startswith("gen2point "):
            continue
        point = {}
        for kv in line.split()[1:]:
            k, _, v = kv.partition("=")
            try:
                point[k] = int(v)
            except ValueError:
                point[k] = v
        points.append(point)
    if points:
        entry["gen2_variants"] = points

doc = {}
if os.path.exists(out):
    doc = json.load(open(out))
doc[label] = entry
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"recorded '{label}' into {out}")
EOF
