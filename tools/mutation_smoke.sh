#!/usr/bin/env bash
# mutation_smoke.sh — prove the --check oracle has teeth (docs/testing.md).
#
# For each seeded mutant below, copy the source tree into a scratch
# directory, apply exactly one bug to the production code, build only the
# CLI, and require that `rfidsched_cli --check` exits 5 (invariant
# violation).  Finally, build the *unmutated* tree the same way and require
# a clean exit — so the harness fails both when the oracle goes blind and
# when it cries wolf.
#
#   usage: tools/mutation_smoke.sh [scratch-dir]
#
# The scratch dir defaults to a fresh mktemp dir and is removed on success.
# Each mutant is applied by a sed replacement that is grep-verified to
# match exactly once, so silent drift of the mutation target fails loudly.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
scratch="${1:-$(mktemp -d /tmp/rfidsched-mutants.XXXXXX)}"
mkdir -p "$scratch"

# Four runs per tree, and a mutant is caught if any exits 5:
#
#  * a generated instance — small enough to build+run in seconds, big enough
#    that every mutated code path executes.  GHC keeps the search cheap even
#    under a mutated independence predicate (a flipped comparison makes the
#    interference graph dense, which would blow up exact B&B).
#  * a hand-crafted deployment where two *independent* readers (dist 8 >
#    R = 5) have overlapping interrogation disks (γ = 4.5) that both cover
#    the midpoint tag, and flanking tags make the pair strictly better than
#    either single so GHC really commits it.  That slot has a tag with
#    radiator multiplicity 2 — the only way to observe the exactly-one
#    filter, since feasible schedules on the generated workload rarely
#    overlap interrogation zones.
gen_args="--algo ghc --mode mcs --readers 25 --tags 300 --side 70 --seed 11 --check"
# A churn run for the streaming index oracle: departures and moves splice
# the dual CSR index in place, and --oracle-every 1 verifies it against a
# from-scratch geometry rebuild after every slot.
stream_args="--algo alg2 --mode stream --readers 25 --tags 300 --side 70 --seed 11 \
  --arrival-rate 4 --depart-rate 2 --move-rate 1 --stream-slots 30 \
  --oracle-every 1 --check"
overlap_csv="$scratch/overlap.csv"
cat > "$overlap_csv" <<'EOF'
# rfidsched deployment v1
reader,0,0,0,5,4.5
reader,1,8,0,5,4.5
tag,0,4,0,100
tag,1,0,1,101
tag,2,0,-1,102
tag,3,8,1,103
tag,4,8,-1,104
EOF
overlap_args="--load $overlap_csv --algo ghc --mode mcs --check"
# A Gen2 link-layer replay (PR10): the co-simulation self-checks fresh-read
# accounting, double acks, and session-persistence windows, escalated to
# exit 5 under --check.  Only this run executes src/protocol/gen2.cpp.
gen2_args="--algo ghc --mode mcs --readers 25 --tags 300 --side 70 --seed 11 --check --link gen2"

# name|file|pattern|replacement  (POSIX basic regexps for sed/grep -c)
mutants=(
  "flip-independence|src/core/reader.h|return geom::dist2(a.pos, b.pos) > m \* m;|return geom::dist2(a.pos, b.pos) < m * m;"
  # The exactly-one mask loses `~twice`: the overlap run's shared tag is served.
  "drop-exactly-one|src/core/system.cpp|~scratch.twice\[e.word\] & ~read_bits_\[e.word\]|~read_bits_[e.word]"
  "csr-off-by-one|src/core/system.h|covr_off_\[static_cast<std::size_t>(t) + 1\]|covr_off_[static_cast<std::size_t>(t)]"
  "drop-mark-read|src/sched/mcs.cpp|    sys.markRead(served);|    // sys.markRead(served);"
  "churn-skip-covr-delta|src/core/system.cpp|  covrReplace(t, {});|  // covrReplace(t, {});"
  # Bitmap desync: an arriving/moving tag that needs a fresh 64-tag block in
  # its coverer's row gets a zero-bit entry — the bit is lost and a zero
  # word is stored (canonical-form violation), so the CSR and bitmap
  # referees drift apart, which the oracle's independently rebuilt bitmap
  # fingerprint must flag.
  "bitmap-desync-insert|src/core/system.cpp|bit_arena_\[--write\] = BitEntry{w, 0, mask};|bit_arena_[--write] = BitEntry{w, 0, 0};"
  # Gen2 session amnesia: acked tags never set their inventoried flag, so an
  # S2 tag covered in a later macro-slot replies and is re-identified inside
  # its persistence window — the link replay's persistence check exits 5.
  "gen2-skip-session-ack|src/protocol/gen2.cpp|          session.onAck(t, macro_slot, target);|          // session.onAck(t, macro_slot, target);"
  # Gen2 MPR off-by-one: a singleton slot (occupancy 1 vs k=1) classifies as
  # a collision, so no tag is ever identified; the round burns its frame cap,
  # reports incomplete, and the replay check exits 5.  Deterministic, no UB.
  "gen2-mpr-threshold-off|src/protocol/gen2.cpp|static_cast<int>(b.size()) <= k|static_cast<int>(b.size()) < k"
)

run_cli() {
  # $1 = tree, $2 = args; prints the exit code.
  local tree="$1" got=0
  # shellcheck disable=SC2086
  "$tree/build/tools/rfidsched_cli" $2 \
    > "$tree/stdout.txt" 2> "$tree/stderr.txt" || got=$?
  echo "$got"
}

build_and_check() {
  # $1 = tree, $2 = expected exit code (5 = mutant, 0 = clean), $3 = label
  local tree="$1" want="$2" label="$3"
  cmake -S "$tree" -B "$tree/build" \
    -DRFIDSCHED_BUILD_TESTS=OFF -DRFIDSCHED_BUILD_BENCH=OFF \
    -DRFIDSCHED_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "$tree/build" --target rfidsched_cli -j > /dev/null
  local g1 g2 g3 g4
  g1=$(run_cli "$tree" "$gen_args")
  local why="$(tail -1 "$tree/stderr.txt")"
  g2=$(run_cli "$tree" "$overlap_args")
  [ "$g2" -eq 5 ] && why="$(tail -1 "$tree/stderr.txt")"
  g3=$(run_cli "$tree" "$stream_args")
  [ "$g3" -eq 5 ] && why="$(tail -1 "$tree/stderr.txt")"
  g4=$(run_cli "$tree" "$gen2_args")
  [ "$g4" -eq 5 ] && why="$(tail -1 "$tree/stderr.txt")"
  case "$g1$g2$g3$g4" in *[!05]*)
    echo "FAIL [$label]: unexpected exits gen=$g1 overlap=$g2 stream=$g3 gen2=$g4" >&2
    sed 's/^/    /' "$tree/stderr.txt" >&2
    return 1
  esac
  if [ "$want" -eq 5 ]; then
    if [ "$g1" -ne 5 ] && [ "$g2" -ne 5 ] && [ "$g3" -ne 5 ] && [ "$g4" -ne 5 ]; then
      echo "FAIL [$label]: mutant escaped (gen=$g1 overlap=$g2 stream=$g3 gen2=$g4)" >&2
      return 1
    fi
  elif [ "$g1" -ne 0 ] || [ "$g2" -ne 0 ] || [ "$g3" -ne 0 ] || [ "$g4" -ne 0 ]; then
    echo "FAIL [$label]: clean tree flagged (gen=$g1 overlap=$g2 stream=$g3 gen2=$g4)" >&2
    sed 's/^/    /' "$tree/stderr.txt" >&2
    return 1
  fi
  echo "ok   [$label]: gen=$g1 overlap=$g2 stream=$g3 gen2=$g4 ($why)"
}

copy_tree() {
  # Only what a TESTS/BENCH/EXAMPLES-off configure needs.
  local dst="$1"
  rm -rf "$dst"
  mkdir -p "$dst"
  tar -C "$repo" -cf - CMakeLists.txt src tools | tar -xf - -C "$dst"
}

fails=0
for spec in "${mutants[@]}"; do
  IFS='|' read -r name file pattern replacement _ <<< "$spec"
  tree="$scratch/$name"
  copy_tree "$tree"
  target="$tree/$file"
  hits=$(grep -c -- "$pattern" "$target" || true)
  if [ "$hits" -ne 1 ]; then
    echo "FAIL [$name]: mutation target matched $hits times in $file (want 1)" >&2
    fails=$((fails + 1))
    continue
  fi
  sed -i "s|$pattern|$replacement|" "$target"
  if cmp -s "$repo/$file" "$target"; then
    echo "FAIL [$name]: sed left $file unchanged" >&2
    fails=$((fails + 1))
    continue
  fi
  build_and_check "$tree" 5 "$name" || fails=$((fails + 1))
done

clean="$scratch/clean-head"
copy_tree "$clean"
build_and_check "$clean" 0 "clean-head" || fails=$((fails + 1))

if [ "$fails" -ne 0 ]; then
  echo "mutation smoke: $fails FAILURE(S); scratch kept at $scratch" >&2
  exit 1
fi
echo "mutation smoke: all ${#mutants[@]} mutants caught, clean tree passes"
rm -rf "$scratch"
