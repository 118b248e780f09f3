#!/usr/bin/env bash
# Alternating parent/change pairs of one perf/ workload — the measurement a
# change that claims a host-time gain has to report.
#
# Builds perf/ in two checkouts of the repository (say a `git clone` of the
# parent commit beside the working tree), then runs <pairs> pairs of the
# workload, alternating which side goes first so that neither always runs on
# the warmer or the quieter host. Prints every pair's sim_cycles_per_s and
# reqs_per_s, each side's median and quartiles of those and of setup_s and
# peak_rss_mb, its fastest round, the win count and the verdict: a gain counts
# when the change is ahead in at least nine tenths of at least ten pairs (ties
# for neither side) and the medians are further apart than the parent's own
# quartiles.
#
# Exits nonzero if any run reports failed != 0 or the two sides' `check`
# lines differ (a speed-up may not move simulated state); the verdict itself
# never fails the script.
#
# Usage: scripts/perf_pairs.sh <parent-tree> <change-tree> <workload> \
#            [pairs=10] [seconds=15] [seed=1] [-- extra perf args]
set -euo pipefail

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; exit 2; }

ARGS=()
EXTRA=()
while [ $# -gt 0 ]; do
  if [ "$1" = -- ]; then shift; EXTRA=("$@"); break; fi
  ARGS+=("$1"); shift
done
[ ${#ARGS[@]} -ge 3 ] && [ ${#ARGS[@]} -le 6 ] || usage
PARENT=$(cd "${ARGS[0]}" && pwd)
CHANGE=$(cd "${ARGS[1]}" && pwd)
WORKLOAD=${ARGS[2]}
PAIRS=${ARGS[3]:-10}
SECONDS_EACH=${ARGS[4]:-15}
SEED=${ARGS[5]:-1}

build() { # <tree>: builds perf/ there; leaves a clean frozen lock file clean
  local tree=$1 lock_was_clean=0
  git -C "$tree" diff --quiet -- perf/Cargo.lock 2>/dev/null && lock_was_clean=1
  cargo build --release --quiet --offline --manifest-path "$tree/perf/Cargo.toml"
  if [ $lock_was_clean = 1 ]; then git -C "$tree" checkout --quiet -- perf/Cargo.lock; fi
}
build "$PARENT"
[ "$CHANGE" = "$PARENT" ] || build "$CHANGE"

OUT=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
trap 'rm -rf "$OUT"' EXIT

run() { # <side> <tree> <pair>: one run; its stdout lands in $OUT/<side>.<pair>
  local log="$OUT/$1.$3"
  if ! "$2/perf/target/release/perf" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_EACH" --trace 0 ${EXTRA[@]+"${EXTRA[@]}"} > "$log"; then
    echo "FAIL: the $1 run of pair $3 exited nonzero" >&2
    grep -E '^(failed_share|check) ' "$log" >&2 || true
    exit 1
  fi
  grep -q '^failed_share 0 ' "$log" || { echo "FAIL: $1 run of pair $3: $(grep '^failed_share' "$log")" >&2; exit 1; }
}
metric() { awk -v m="$2" '$1 == "metric" && $2 == m { print $3 }' "$1"; }
values() { for ((j = 1; j <= PAIRS; j++)); do metric "$OUT/$1.$j" "$2"; done; } # <side> <metric>
stats() { # values on stdin -> "q1 median q3 min max" (quartiles by linear interpolation)
  sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.8g %.8g %.8g %.8g %.8g\n", q(.25), q(.5), q(.75), v[1], v[NR] }'
}

echo "perf_pairs workload=$WORKLOAD pairs=$PAIRS seconds=$SECONDS_EACH seed=$SEED extra='${EXTRA[*]:-}' nproc=$(nproc)"
echo "parent=$PARENT ($(git -C "$PARENT" rev-parse --short HEAD 2>/dev/null || echo '?'))"
echo "change=$CHANGE ($(git -C "$CHANGE" rev-parse --short HEAD 2>/dev/null || echo '?'), plus its working tree)"
printf '%4s %-6s %16s %16s %7s %14s %14s\n' pair first parent_cycles/s change_cycles/s ratio parent_reqs/s change_reqs/s
WINS=0
LOSSES=0
for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2)); then
    FIRST=parent; run parent "$PARENT" "$i"; run change "$CHANGE" "$i"
  else
    FIRST=change; run change "$CHANGE" "$i"; run parent "$PARENT" "$i"
  fi
  P=$(metric "$OUT/parent.$i" sim_cycles_per_s); C=$(metric "$OUT/change.$i" sim_cycles_per_s)
  printf '%4d %-6s %16.1f %16.1f %7.3f %14.0f %14.0f\n' "$i" "$FIRST" "$P" "$C" \
    "$(awk -v p="$P" -v c="$C" 'BEGIN { print c / p }')" \
    "$(metric "$OUT/parent.$i" reqs_per_s)" "$(metric "$OUT/change.$i" reqs_per_s)"
  WINS=$((WINS + $(awk -v p="$P" -v c="$C" 'BEGIN { print (c > p) }')))
  LOSSES=$((LOSSES + $(awk -v p="$P" -v c="$C" 'BEGIN { print (c < p) }')))
done

# Simulated state: one `check` line across every run of both sides.
if [ "$(cat "$OUT"/*.* | grep '^check ' | sort -u | wc -l)" != 1 ]; then
  echo "FAIL: the check lines differ between runs:" >&2
  grep -H '^check ' "$OUT"/*.* | sed "s|^$OUT/||" | sort -t: -k2 -u >&2
  exit 1
fi
echo "check lines identical: $(grep -h '^check ' "$OUT/parent.1" | cut -d' ' -f2-)"

for SIDE in parent change; do
  for M in sim_cycles_per_s reqs_per_s setup_s peak_rss_mb; do
    read -r Q1 MED Q3 MIN MAX < <(values $SIDE $M | stats)
    printf '%-6s %-16s median %14s  quartiles %14s .. %14s  (min %s, max %s)\n' $SIDE $M "$MED" "$Q1" "$Q3" "$MIN" "$MAX"
  done
  # Every round of every run of this side: the least wall, and the rate it
  # means at the run's cycle count.
  for ((i = 1; i <= PAIRS; i++)); do
    CYCLES=$(metric "$OUT/$SIDE.$i" sim_cycles)
    grep '^raw ' "$OUT/$SIDE.$i" | sed 's/.*round_walls_s=\[\([^]]*\)\].*/\1/' | tr ',' '\n' | awk -v c="$CYCLES" 'NF { print $1, c }'
  done | sort -g | awk -v side=$SIDE 'NR == 1 { printf "%-6s fastest round   %.6f s  (%.1f sim_cycles_per_s)\n", side, $1, $2 / $1 }'
done

read -r PQ1 PMED PQ3 _ _ < <(values parent sim_cycles_per_s | stats)
read -r _ CMED _ _ _ < <(values change sim_cycles_per_s | stats)
awk -v pairs="$PAIRS" -v wins="$WINS" -v losses="$LOSSES" -v pmed="$PMED" -v cmed="$CMED" -v iqr="$(awk -v a="$PQ1" -v b="$PQ3" 'BEGIN { print b - a }')" 'BEGIN {
  gap = cmed - pmed
  printf "sim_cycles_per_s: change ahead in %d of %d pairs (%d behind), median ratio %.3f, median gap %.1f against a parent inter-quartile distance of %.1f\n", wins, pairs, losses, cmed / pmed, gap, iqr
  if (pairs < 10) print "verdict: too few pairs for a verdict (the rule needs ten)"
  else if (wins * 10 >= pairs * 9 && gap > iqr) print "verdict: gain"
  else if (losses * 10 >= pairs * 9 && -gap > iqr) print "verdict: regression"
  else print "verdict: no difference shown"
}'
