#!/bin/sh
# stream_soak.sh — streaming chaos soak (docs/streaming.md).
#
#   1. generate one bursty churn trace (10x MMPP bursts) and run the
#      streaming driver over it journaled and under the paranoid index
#      oracle — every slot's incremental coverage index is verified against
#      a from-scratch geometry rebuild; any divergence exits 5;
#   2. run the same trace again and SIGKILL the process mid-stream;
#   3. resume from the journal and require stdout byte-identical to the
#      uninterrupted run — the churn replay, the shed decisions, and the
#      latency percentiles must all survive a crash;
#   4. re-verify the resumed run's oracle report shows zero divergences.
#
# Usage: tools/stream_soak.sh [path-to-rfidsched_cli]
set -eu

CLI="${1:-build/tools/rfidsched_cli}"
[ -x "$CLI" ] || { echo "stream_soak: CLI not found at $CLI" >&2; exit 1; }

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Big enough to take a few hundred ms (room to kill mid-stream); 10x bursts
# against a backlog bound and a service deadline so both shed paths run.
CFG="--mode stream --algo alg2 --readers 150 --tags 3000 --side 110 --seed 23 \
  --arrival-rate 20 --depart-rate 6 --move-rate 6 --stream-slots 120 \
  --burst 10 --burst-enter 0.1 --burst-exit 0.25 \
  --max-backlog 400 --shed-after 40 --check=paranoid"

echo "== generate the churn trace once, reuse it everywhere =="
$CLI $CFG --save-churn "$TMP/churn.csv" > /dev/null 2>&1

echo "== baseline (uninterrupted, journaled, paranoid oracle) =="
$CLI $CFG --churn "$TMP/churn.csv" --checkpoint "$TMP/jbase" \
  > "$TMP/base.out" 2> "$TMP/base.err"
grep -q "check: ok" "$TMP/base.err" || {
  echo "FAIL: paranoid oracle did not report clean" >&2
  cat "$TMP/base.err" >&2
  exit 1
}

echo "== SIGKILL mid-stream =="
$CLI $CFG --churn "$TMP/churn.csv" --checkpoint "$TMP/j" \
  > "$TMP/killed.out" 2>/dev/null &
PID=$!
# Wait for real progress: header + at least 3 committed slot records.
TRIES=0
while [ "$(cat "$TMP/j" 2>/dev/null | wc -l)" -lt 4 ]; do
    if ! kill -0 "$PID" 2>/dev/null; then break; fi
    TRIES=$((TRIES + 1))
    [ "$TRIES" -gt 30000 ] && { echo "timed out waiting for journal" >&2; exit 1; }
    sleep 0.001 2>/dev/null || sleep 1
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

echo "== resume and compare =="
$CLI $CFG --churn "$TMP/churn.csv" --checkpoint "$TMP/j" --resume \
  > "$TMP/resumed.out" 2> "$TMP/resumed.err"
if ! cmp -s "$TMP/base.out" "$TMP/resumed.out"; then
    echo "FAIL: resumed stream differs from uninterrupted run" >&2
    diff "$TMP/base.out" "$TMP/resumed.out" >&2 || true
    exit 1
fi
echo "resumed stream byte-identical to uninterrupted run"

echo "== zero divergences across the soak =="
for ERR in "$TMP/base.err" "$TMP/resumed.err"; do
    if grep -q "index divergence" "$ERR"; then
        echo "FAIL: index oracle reported a divergence in $ERR" >&2
        cat "$ERR" >&2
        exit 1
    fi
    grep -q "check: ok" "$ERR" || {
        echo "FAIL: no clean oracle verdict in $ERR" >&2
        cat "$ERR" >&2
        exit 1
    }
done
echo "paranoid oracle: zero divergences"

# The overload machinery must actually have engaged under the 10x bursts —
# a soak that never sheds is not a soak.
grep -q "overload:" "$TMP/base.out" || {
    echo "FAIL: no overload report in stream output" >&2
    cat "$TMP/base.out" >&2
    exit 1
}

echo "stream soak: OK"
