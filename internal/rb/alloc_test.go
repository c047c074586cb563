package rb

import (
	"testing"

	"svssba/internal/sim"
)

// TestRBHandleWarmAllocatesNothing pins BenchmarkRBHandle's 0 allocs/op:
// on both warm workloads a delivery allocates nothing. Each run covers
// two wraps of the window, so the resets are averaged in; amortized
// slice growth stays below one allocation per delivery.
func TestRBHandleWarmAllocatesNothing(t *testing.T) {
	for _, w := range []struct {
		name string
		warm func(sim.Context) func(int)
	}{{"count", warmCount}, {"accepted", warmAccepted}} {
		deliver := w.warm(benchContext())
		i := 0
		allocs := testing.AllocsPerRun(4*benchWindow, func() { deliver(i); i++ })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per delivery, want 0", w.name, allocs)
		}
	}
}
