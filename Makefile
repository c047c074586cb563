GO ?= go

.PHONY: build test check vet bench bench-check sweep sweep-full scenario scenario-full cluster node-smoke sim-smoke cluster-race fuzz-pack parity n10 n13 loadgen-smoke loadgen-smoke-pool loadgen-smoke-bulk service-check obs-smoke soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is what CI runs: fast, deterministic, full build surface.
check: vet build
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-check is the benchmark harness's own smoke (<= 20 s): every
# workload of BENCHMARK.json run for a few seconds, schema, metric names
# and units checked, and each contract check shown to fire on a planted
# violation. It is the only thing that proves bench/ still compiles
# against the internals it imports (CI runs the same).
bench-check:
	$(GO) run ./bench -check

sweep:
	$(GO) run ./cmd/expsweep -parallel 0

sweep-full:
	$(GO) run ./cmd/expsweep -full -parallel 0

scenario:
	$(GO) run ./cmd/scenario -quick -workers 0

scenario-full:
	$(GO) run ./cmd/scenario -full -workers 0

# cluster is the real-socket smoke run CI uses: agreement over
# localhost TCP with one node crashed, the per-layer payload/byte table
# and the node-level frame line of the shipped wire (v2 behind the
# coalescing outbox), exit 0.
cluster:
	$(GO) run ./cmd/cluster -n 4 -crash 1 -timeout 60s

# node-smoke runs cmd/node as four real OS processes sharing one
# generated spec (ids 1-3 in the background, 4 in the foreground) and
# fails unless every process exits 0 with the same decision line.
# NODE_SMOKE_BASEPORT moves the four ports (default 7400..7403).
node-smoke:
	./scripts/node_smoke.sh

# loadgen-smoke is the agreement-as-a-service throughput smoke CI runs:
# 30s of sustained concurrent ACS sessions on the chan transport, with
# cross-node subset equality, >0 decisions/sec, and per-session state
# retiring back to baseline all asserted (exit nonzero on violation).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -n 4 -duration 30s -minrate 0.05

# loadgen-smoke-pool is the pooled variant of the same leg: the
# admission window must keep the submission window fully in flight
# (-minpeak = the default window) and clear a decisions/sec floor that a
# coin-bound service (~10/s: every session dealing and flipping) misses
# by 10x; the report additionally asserts the pool ledger contract
# (zero double handouts, zero leaked supplies after drain), and the
# wrapper script that fault-free sessions flip < 1 real coin on average.
loadgen-smoke-pool:
	./scripts/loadgen_smoke.sh -n 4 -duration 30s -pool -minpeak 8 -minrate 50

# loadgen-smoke-bulk is the guard against proposal amplification coming
# back: 64 KiB values over loopback TCP, where the script
# additionally asserts under 1.5 MB of frames per session (each value
# once per link is 0.79 MB at n=4; full values in every RB echo were
# 9.4 MB).
loadgen-smoke-bulk:
	./scripts/loadgen_smoke.sh -n 4 -transport tcp -bytes 65536 -pool -duration 15s -minrate 20

# service-check runs the scenario-style multi-session invariant cell:
# agreement/validity/termination per session across the service nodes.
service-check:
	$(GO) run ./cmd/scenario -service

# obs-smoke exercises the observability layer end to end: a short
# loadgen with the HTTP introspection endpoint up, /metrics curled and
# validated mid-run, /trace spot-checked, and the final report asserted
# (CI runs the same script).
obs-smoke:
	./scripts/obs_smoke.sh

# soak is the watchdog run: sustained service traffic with throughput
# flatness, protocol-state boundedness and per-session budgets asserted;
# exits nonzero on violation. Tune -duration up for real soaks.
soak:
	$(GO) run ./cmd/loadgen -n 4 -duration 5m -soak -report 30s -maxlat 2m

# fuzz-pack fuzzes the frame decode surface — core packs and node
# frames are both a proto.Pack — for a short, fixed duration (CI's
# parity job runs the same leg).
fuzz-pack:
	$(GO) test -run=NONE -fuzz=FuzzPackDecode -fuzztime=30s ./internal/proto/

# cluster-race runs the node/transport runtime tests under the race
# detector (the same Node code path cmd/cluster uses, on the
# in-process transport), plus the coin-pool layer whose refill and
# handout paths run on the service's delivery goroutines.
cluster-race:
	$(GO) test -race ./internal/transport/ ./internal/node/ ./internal/coinpool/

# sim-smoke runs the simulator CLIs (cmd/abarun, cmd/coinstat) on
# configurations that must decide and on ones the config check must
# refuse with a nonzero exit (CI runs it beside the parity digest).
sim-smoke:
	./scripts/sim_smoke.sh

# parity diffs the quick-matrix digest against its pinned golden, which
# must stay byte-identical across representation changes. Regenerate it
# only as a deliberate act:
#   go run ./cmd/paritydigest > cmd/paritydigest/testdata/parity.txt
parity:
	$(GO) run ./cmd/paritydigest | diff cmd/paritydigest/testdata/parity.txt -
	@echo parity OK: the digest matches its pinned golden

# n13 runs the n=13/t=4 agreement smoke under wire v2 — the scale the
# burst-coalescing message-complexity pass (PR 6) opened. Deliberate
# deep run; the default `go test` budget skips it.
n13:
	$(GO) test -run TestAgreementN13 -v -timeout 90m .

# n10 runs the n=10/t=3 agreement smoke end to end — a deliberate deep
# run (>100M deliveries per coin round; CHANGES.md records the measured
# cost with the interned dense-state port). The default `go test` budget skips it; this target
# grants the headroom.
n10:
	$(GO) test -run TestAgreementN10 -v -timeout 90m .
