#!/usr/bin/env bash
# loadgen_smoke.sh ARGS... — run cmd/loadgen with ARGS and, on top of
# loadgen's own exit contract (subsets, baseline, pool ledger, -minrate,
# -minpeak), assert what a fault-free run owes since the coin became a
# cost of contention: fewer than one real coin flip per session on
# average. loadgen injects no faults, so a mean >= 1 means sessions are
# paying for coins nobody contested. With bulk values (-bytes >= 4096)
# it also asserts each proposal crosses each link about once: under
# 1.5 MB of frames per session, where n=4 nodes of 64 KiB proposals owe
# n(n-1)|v| = 0.79 MB and value-carrying echoes used to cost 9.4 MB.
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/loadgen "$@" -json | python3 -c '
import json, sys
r = json.load(sys.stdin)
print("loadgen: %d sessions, %.1f decisions/sec, p50 %.1f ms, coin rounds/session mean %.3f max %d" % (
    r["sessions"], r["decisions_per_sec"], r["latency_p50_ms"], r["coin_rounds_mean"], r["coin_rounds_max"]))
if r["coin_rounds_mean"] >= 1:
    sys.exit("loadgen smoke: mean coin rounds per session %.2f >= 1 on a fault-free run" % r["coin_rounds_mean"])
if r["value_bytes"] >= 4096:
    per = r["sent_frame_bytes"] / max(r["sessions"], 1)
    print("loadgen: %.0f frame bytes per session, %d values forwarded, %d candidates dropped" % (
        per, r["value_forwards"], r["value_candidates_dropped"]))
    if per >= 1.5e6:
        sys.exit("loadgen smoke: %.0f frame bytes per session >= 1.5e6: proposals are being shipped more than once" % per)
'
