#!/usr/bin/env bash
# node_smoke.sh — run a four-node cluster as four real OS processes of
# cmd/node over localhost TCP: build the binary once, write a spec with
# `node -gen -n 4`, start ids 1-3 in the background and id 4 in the
# foreground. Fails if any process exits nonzero or the four
# `decision` lines differ. NODE_SMOKE_BASEPORT (default 7400) moves the
# four listen ports (base..base+3) off a range that is in use.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${NODE_SMOKE_BASEPORT:-7400}
work=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/node" ./cmd/node
"$work/node" -gen -n 4 -baseport "$base" > "$work/spec.json"

for id in 1 2 3; do
    "$work/node" -spec "$work/spec.json" -id "$id" -timeout 60s > "$work/node$id.out" 2>&1 &
    pids+=("$!")
done
status=0
"$work/node" -spec "$work/spec.json" -id 4 -timeout 60s > "$work/node4.out" 2>&1 ||
    { echo "node_smoke: node 4 exited nonzero"; status=1; }
for i in 0 1 2; do
    wait "${pids[$i]}" || { echo "node_smoke: node $((i + 1)) exited nonzero"; status=1; }
done
pids=()
for id in 1 2 3 4; do
    echo "--- node $id"
    cat "$work/node$id.out"
done
if [ "$status" -ne 0 ]; then
    echo "node_smoke: a node process failed"
    exit 1
fi

lines=$(cat "$work"/node?.out | grep '^decision ' || true)
echo "node_smoke: decision lines:"
echo "$lines"
if [ "$(echo "$lines" | grep -c .)" -ne 4 ] || [ "$(echo "$lines" | sort -u | wc -l)" -ne 1 ]; then
    echo "node_smoke: the four nodes did not print one common decision"
    exit 1
fi
echo "node_smoke OK: four processes agreed"
