#!/usr/bin/env bash
# Kill/resume matrix for the durable replay path.
#
# For each kill point, runs the replay CLI with --checkpoint-dir, hard-kills
# it (SIGKILL — no cleanup handlers run, exactly like an OOM kill), resumes
# with --resume, and demands the printed final state fingerprint is
# bit-identical to an uninterrupted reference run. Also corrupts the newest
# checkpoint once and demands recovery falls back loudly instead of using it.
#
# Usage: scripts/crash_recovery_matrix.sh [REPLAY_BIN]
set -u

REPLAY=${1:-target/release/replay}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hmc-crash-matrix.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
FAILS=0

fingerprint_of() { grep -o 'final state fingerprint: 0x[0-9a-f]*' "$1" | tail -1; }

say()  { printf '%s\n' "$*"; }
fail() { say "FAIL: $*"; FAILS=$((FAILS + 1)); }

# A deterministic trace big enough that checkpointing dominates the
# wall clock, so the SIGKILLs below genuinely land mid-run.
TRACE="$WORK/trace.txt"
awk 'BEGIN {
  for (i = 0; i < 40000; i++)
    printf "%s 0x%x 64 %d\n", (i % 2 ? "R" : "W"), 1048576 + (i * 64) % 2097152, i % 8
}' > "$TRACE"

# Reference: uninterrupted run.
"$REPLAY" "$TRACE" --checkpoint-every 100 > "$WORK/ref.log" 2>&1
REF=$(fingerprint_of "$WORK/ref.log")
[ -n "$REF" ] || { say "FATAL: reference run printed no fingerprint"; exit 1; }
say "reference $REF"

# Kill matrix: SIGKILL at several points into the run.
for KILL_AFTER in 0.05 0.15 0.30; do
  DIR="$WORK/ckpt-$KILL_AFTER"
  timeout -s KILL "$KILL_AFTER" \
    "$REPLAY" "$TRACE" --checkpoint-dir "$DIR" --checkpoint-every 100 \
    > "$WORK/killed-$KILL_AFTER.log" 2>&1
  STATUS=$?
  if [ "$STATUS" -ne 124 ] && [ "$STATUS" -ne 137 ]; then
    # The run finished before the kill fired; still a valid resume test.
    say "note: kill at ${KILL_AFTER}s landed after completion (status $STATUS)"
  fi
  "$REPLAY" "$TRACE" --checkpoint-dir "$DIR" --checkpoint-every 100 --resume \
    > "$WORK/resumed-$KILL_AFTER.log" 2>&1 \
    || { fail "resume after ${KILL_AFTER}s kill exited nonzero"; continue; }
  GOT=$(fingerprint_of "$WORK/resumed-$KILL_AFTER.log")
  if [ "$GOT" = "$REF" ]; then
    say "kill@${KILL_AFTER}s: resumed run is bit-identical ($GOT)"
  else
    fail "kill@${KILL_AFTER}s: resumed fingerprint '$GOT' != reference '$REF'"
  fi
done

# Configuration: a resume that would build a different machine (8 links
# against a 4-link run directory) is refused, naming the config mismatch.
"$REPLAY" "$TRACE" --checkpoint-dir "$WORK/ckpt-0.05" --checkpoint-every 100 --resume \
  --links 8 > "$WORK/mismatch.log" 2>&1
STATUS=$?
if [ "$STATUS" -eq 0 ]; then
  fail "resume with --links 8 against a 4-link run exited zero"
elif ! grep -q 'config {.*} != recorded {' "$WORK/mismatch.log"; then
  fail "resume with --links 8 was refused without naming the config mismatch"
else
  say "config mismatch: refused (status $STATUS)"
fi

# Corruption: tear the newest checkpoint; recovery must quarantine it,
# fall back, and still converge to the reference fingerprint.
DIR="$WORK/ckpt-corrupt"
"$REPLAY" "$TRACE" --checkpoint-dir "$DIR" --checkpoint-every 100 > /dev/null 2>&1
NEWEST=$(ls "$DIR"/ckpt-*.json | sort -t- -k2 -n | tail -1)
SIZE=$(wc -c < "$NEWEST")
head -c $((SIZE / 2)) "$NEWEST" > "$NEWEST.torn" && mv "$NEWEST.torn" "$NEWEST"
"$REPLAY" "$TRACE" --checkpoint-dir "$DIR" --checkpoint-every 100 --resume \
  > "$WORK/corrupt.log" 2>&1
if ! grep -q "QUARANTINED" "$WORK/corrupt.log"; then
  fail "torn checkpoint was not loudly quarantined"
fi
ls "$DIR"/*.corrupt > /dev/null 2>&1 || fail "no .corrupt evidence file kept"
GOT=$(fingerprint_of "$WORK/corrupt.log")
if [ "$GOT" = "$REF" ]; then
  say "corruption: fell back to prior generation, still bit-identical ($GOT)"
else
  fail "corruption fallback fingerprint '$GOT' != reference '$REF'"
fi

# Preserve quarantined evidence for CI artifact upload.
mkdir -p target/crash-recovery
cp "$DIR"/*.corrupt target/crash-recovery/ 2>/dev/null || true
cp "$WORK"/*.log target/crash-recovery/ 2>/dev/null || true

if [ "$FAILS" -eq 0 ]; then
  say "crash-recovery matrix: all checks passed"
else
  say "crash-recovery matrix: $FAILS check(s) FAILED"
  exit 1
fi
