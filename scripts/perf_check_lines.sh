#!/usr/bin/env bash
# Simulated-domain golden for changes meant only to speed the simulator up.
#
# Runs the four perf/ workloads at 1 % scale on seed 1 and compares each
# one's `check` line — sim_cycles, state fingerprint, FLIT, stall and
# forward counters, latency quantiles: everything simulated, nothing timed —
# with tests/golden/perf_check_lines.txt. Host speed never reaches a check
# line, so the golden holds on any machine; a speed-up that moves a
# simulated statistic fails here, whatever the benchmark numbers say.
#
# Usage: scripts/perf_check_lines.sh           compare against the golden
#        BLESS=1 scripts/perf_check_lines.sh   regenerate it (a change that
#                                              means to move simulated state,
#                                              or re-keys the fingerprint)
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/perf_check_lines.txt
ACTUAL=$(mktemp "${TMPDIR:-/tmp}/perf-check-lines.XXXXXX")
trap 'rm -f "$ACTUAL"' EXIT

for WORKLOAD in stream_sat gups_mesh16 mutex_sweep replay_audit; do
  # A workload that fails its own output checks exits nonzero and stops
  # the script here (pipefail).
  LINE=$(cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
           --workload "$WORKLOAD" --seed 1 --scale 0.01 --seconds 0.3 --trace 0 \
         | grep '^check ')
  printf '%s %s\n' "$WORKLOAD" "${LINE#check }" >> "$ACTUAL"
done

if [ "${BLESS:-0}" = 1 ]; then
  cp "$ACTUAL" "$GOLDEN"
  echo "blessed $GOLDEN"
elif diff -u "$GOLDEN" "$ACTUAL"; then
  echo "perf check lines match $GOLDEN"
else
  echo "FAIL: a simulated statistic moved (see the diff above); if that is the point of the change, rerun with BLESS=1"
  exit 1
fi
