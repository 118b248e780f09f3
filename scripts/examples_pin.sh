#!/usr/bin/env bash
# Example-output golden: runs six examples and diffs what each prints with
# its checked-in file under results/. The examples are deterministic, so
# any difference is a simulated result that moved.
#
# Usage: scripts/examples_pin.sh           compare against results/
#        BLESS=1 scripts/examples_pin.sh   rewrite the files (a change that
#                                          means to move an example's output)
set -euo pipefail
cd "$(dirname "$0")/.."

ACTUAL=$(mktemp "${TMPDIR:-/tmp}/examples-pin.XXXXXX")
trap 'rm -f "$ACTUAL"' EXIT

cargo build --release --quiet --offline --examples

FAILED=0
# example:results file
for PAIR in gups:gups bfs_offload:bfs stream_triad:triad host_api:host_api \
            expressive_locks:expressive_locks kv_store:kv_store; do
  EXAMPLE=${PAIR%%:*}
  FILE=results/${PAIR##*:}.txt
  # An example that fails its own assertions exits nonzero and stops the
  # script here.
  cargo run --release --quiet --offline --example "$EXAMPLE" > "$ACTUAL"
  if [ "${BLESS:-0}" = 1 ]; then
    cp "$ACTUAL" "$FILE"
    echo "blessed $FILE"
  elif diff -u "$FILE" "$ACTUAL"; then
    echo "ok $FILE"
  else
    echo "FAIL: --example $EXAMPLE no longer prints $FILE (see the diff above)"
    FAILED=1
  fi
done

if [ "$FAILED" = 1 ]; then
  echo "rerun with BLESS=1 if moving these outputs is the point of the change"
  exit 1
fi
