#!/usr/bin/env bash
# Build the benchmark harness inside the checkout and run it.
#
# BENCHMARK.json's command is `bash bench/run.sh`; the driver appends
# --workload/--seed/--seconds/--trace. Everything the build writes (the
# binary, Go's build cache and telemetry files) goes under .bench_build/
# in the checkout, so a run reads and writes nothing outside it. The
# first call compiles the module (tens of seconds on a cold cache); later
# calls only re-link when a source file changed.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/ not found here)" >&2
	exit 2
fi

root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTELEMETRYDIR="$out/telemetry"
export GOTOOLCHAIN=local

go build -o "$out/svssba-bench" ./bench
exec "$out/svssba-bench" "$@"
