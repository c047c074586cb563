#!/usr/bin/env bash
# sim_smoke.sh — drive the simulator CLIs end to end: build cmd/abarun
# and cmd/coinstat once, run the configurations that must succeed (an
# agreement must print "all decided true" and "agreed true", the coin
# run "stuck 0"), and the ones the shared config check must refuse with
# a nonzero exit. Fails on the first command that does otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/abarun" ./cmd/abarun
go build -o "$work/coinstat" ./cmd/coinstat

status=0
# pass NAME PATTERN... -- CMD...: CMD must exit 0 and print every PATTERN.
pass() {
    local pats=()
    while [ "$1" != "--" ]; do pats+=("$1"); shift; done
    shift
    echo "sim_smoke: must pass: $*"
    if ! "$@" > "$work/out" 2>&1; then
        cat "$work/out"
        echo "sim_smoke: FAIL: exited nonzero: $*"
        status=1
        return
    fi
    for p in "${pats[@]}"; do
        if ! grep -Eq "$p" "$work/out"; then
            cat "$work/out"
            echo "sim_smoke: FAIL: no line matching '$p': $*"
            status=1
        fi
    done
}
# refuse CMD...: CMD must exit nonzero.
refuse() {
    echo "sim_smoke: must fail: $*"
    if "$@" > "$work/out" 2>&1; then
        cat "$work/out"
        echo "sim_smoke: FAIL: exited 0: $*"
        status=1
    else
        sed 's/^/  /' "$work/out" | head -1
    fi
}

decided=('^all decided +true$' '^agreed +true$' --)
pass "${decided[@]}" "$work/abarun" -n 4 -seed 7
pass "${decided[@]}" "$work/abarun" -n 7 -faults 6:vote-equivocate,7:rval-lie
pass '^  stuck +0$' -- "$work/coinstat" -n 4 -runs 4 -fault 4:rval-lie
refuse "$work/abarun" -faults 4:vote-flp
refuse "$work/abarun" -n 4 -t 2
refuse "$work/coinstat" -coinbatch 1

if [ "$status" -ne 0 ]; then
    echo "sim_smoke: FAILED"
    exit 1
fi
echo "sim_smoke OK"
