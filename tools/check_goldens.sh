#!/usr/bin/env bash
# check_goldens.sh — golden-file regression check for the CLI surface
# (docs/testing.md).  Runs the canonical invocation against the committed
# deployment and diffs stdout, the metrics JSON, the (time-normalized)
# JSONL event stream, the deterministic cost-attribution JSON, and the
# masked rfidsched_report rendering against tests/golden/.  Registered in
# ctest with the `integration` label; tools/update_goldens.sh re-records
# after an intentional output change.
#
#   usage: tools/check_goldens.sh [path-to-rfidsched_cli] [--update]
#
# rfidsched_report is expected beside the CLI binary (same build tree).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cli="${1:-$repo/build/tools/rfidsched_cli}"
mode="${2:-check}"
golden="$repo/tests/golden"
report="$(dirname "$cli")/rfidsched_report"

if [ ! -x "$cli" ]; then
  echo "check_goldens: CLI not found at $cli" >&2
  exit 1
fi
if [ ! -x "$report" ]; then
  echo "check_goldens: rfidsched_report not found at $report" >&2
  exit 1
fi

scratch="$(mktemp -d /tmp/rfidsched-golden.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

# The canonical run: fixed committed deployment, deterministic algorithm,
# metrics + events + cost attribution enabled, the invariant oracle armed.
# --threads 1 pins the parallel fan-out so the trace's span structure is
# byte-stable; the cost JSON is identical at every thread count by contract
# (tests/test_cost.cpp), so pinning it here is belt and braces.  Output
# paths are relative so stdout (which echoes them) is byte-stable.
"$cli" --load "$golden/deploy.csv" --algo alg2 --mode mcs --check \
  --threads 1 --metrics metrics.json --jsonl events.jsonl --cost cost.json \
  > stdout.txt

# Event timestamps/durations and the *_us histograms are wall-clock (they
# ride with the attached trace); zero them so the goldens pin structure and
# counts, not scheduling jitter.
sed -E 's/"ts_us": [0-9]+/"ts_us": 0/; s/"dur_us": [0-9]+/"dur_us": 0/' \
  events.jsonl > events.normalized.jsonl
sed -E 's/"([a-zA-Z0-9_.]+_us)": \{[^}]*\}/"\1": {}/' \
  metrics.json > metrics.normalized.json

# The analyzer rendering over the run's own telemetry, wall-clock masked:
# everything left is deterministic (counters, cost bills, span structure).
"$report" --metrics metrics.json --jsonl events.jsonl --cost cost.json \
  --mask-wall > report.txt

# The same canonical run replayed under the Gen2 link (PR10): air-time is
# integer-microsecond arithmetic over splittable-RNG draws, so stdout —
# including the seconds-denominated schedule length — is byte-stable.
"$cli" --load "$golden/deploy.csv" --algo alg2 --mode mcs --check \
  --threads 1 --link gen2 > gen2_stdout.txt

# The multi-channel scheduler through the same MCS driver, oracle armed with
# no exemption: its proposals carry their channels, which the referee and
# the validator both honor.
"$cli" --load "$golden/deploy.csv" --algo mc --mode mcs --check \
  > mc_stdout.txt

if [ "$mode" = "--update" ]; then
  cp stdout.txt "$golden/cli_stdout.txt"
  cp metrics.normalized.json "$golden/cli_metrics.json"
  cp events.normalized.jsonl "$golden/cli_events.jsonl"
  cp cost.json "$golden/cli_cost.json"
  cp report.txt "$golden/cli_report.txt"
  cp gen2_stdout.txt "$golden/cli_gen2_stdout.txt"
  cp mc_stdout.txt "$golden/cli_mc_stdout.txt"
  echo "goldens updated in $golden"
  exit 0
fi

fails=0
for pair in "stdout.txt cli_stdout.txt" \
            "metrics.normalized.json cli_metrics.json" \
            "events.normalized.jsonl cli_events.jsonl" \
            "cost.json cli_cost.json" \
            "report.txt cli_report.txt" \
            "gen2_stdout.txt cli_gen2_stdout.txt" \
            "mc_stdout.txt cli_mc_stdout.txt"; do
  set -- $pair
  if ! diff -u "$golden/$2" "$1"; then
    echo "golden mismatch: $2 (ran: $1)" >&2
    fails=$((fails + 1))
  fi
done

if [ "$fails" -ne 0 ]; then
  echo "goldens: $fails mismatch(es); if intentional, run tools/update_goldens.sh" >&2
  exit 1
fi
echo "goldens: ok"
