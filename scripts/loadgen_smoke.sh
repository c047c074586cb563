#!/usr/bin/env bash
# loadgen_smoke.sh ARGS... — run cmd/loadgen with ARGS and, on top of
# loadgen's own exit contract (subsets, baseline, pool ledger, -minrate,
# -minpeak), assert what a fault-free run owes since the coin became a
# cost of contention: fewer than one real coin flip per session on
# average. loadgen injects no faults, so a mean >= 1 means sessions are
# paying for coins nobody contested.
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/loadgen "$@" -json | python3 -c '
import json, sys
r = json.load(sys.stdin)
print("loadgen: %d sessions, %.1f decisions/sec, p50 %.1f ms, coin rounds/session mean %.3f max %d" % (
    r["sessions"], r["decisions_per_sec"], r["latency_p50_ms"], r["coin_rounds_mean"], r["coin_rounds_max"]))
if r["coin_rounds_mean"] >= 1:
    sys.exit("loadgen smoke: mean coin rounds per session %.2f >= 1 on a fault-free run" % r["coin_rounds_mean"])
'
