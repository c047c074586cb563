package svssba

import (
	"testing"

	"svssba/internal/core"
)

// TestCoinSupplyOffPreservesSchedule is the shape-preservation contract
// for the amortized coin machinery, in the same style as
// TestObsHooksPreserveSchedule: installing the batch supply with zero
// round coverage — the "pooling off" configuration — must leave the v1
// execution byte-for-byte identical to a stack without any supply.
// Every coin round then takes the classic dealing path, and the supply
// plumbing (the Supply port, the plural reconstruct entry points, the
// slot ledger) must be invisible to the scheduler: same decisions, same
// delivery count, same virtual clock, same traffic totals. Together
// with the golden digest test this pins that only CoinBatch > 0 runs
// may diverge from the v1 parity digest.
func TestCoinSupplyOffPreservesSchedule(t *testing.T) {
	const n, tf = 4, 1
	for _, seed := range []int64{1, 3, 17} {
		plain := runADHSim(t, n, tf, seed, nil)
		supplied := runADHSim(t, n, tf, seed, func(_ int, st *core.Stack) {
			st.EnableCoinBatch(0)
		})
		if supplied.steps != plain.steps || supplied.virtualTime != plain.virtualTime {
			t.Fatalf("seed %d: schedule diverged: steps %d vs %d, vtime %d vs %d",
				seed, supplied.steps, plain.steps, supplied.virtualTime, plain.virtualTime)
		}
		if supplied.messages != plain.messages || supplied.bytes != plain.bytes {
			t.Fatalf("seed %d: traffic diverged: msgs %d vs %d, bytes %d vs %d",
				seed, supplied.messages, plain.messages, supplied.bytes, plain.bytes)
		}
		for pid, v := range plain.decisions {
			if sv, ok := supplied.decisions[pid]; !ok || sv != v {
				t.Fatalf("seed %d: node %d decided %d (supplied) vs %d (plain)", seed, pid, sv, v)
			}
		}
	}
}
