package mwsvss

import "testing"

// TestMWSVSSDeliverWarmAllocatesNothing pins BenchmarkMWSVSSDeliver's
// 0 allocs/op: on both warm workloads a delivery allocates nothing.
// Each run covers two wraps of the window, so the resets are averaged
// in; amortized slice growth stays below one allocation per delivery.
func TestMWSVSSDeliverWarmAllocatesNothing(t *testing.T) {
	for _, w := range []struct {
		name string
		warm func() func(int)
	}{{"echo", warmEcho}, {"ack", warmAck}} {
		deliver := w.warm()
		i := 0
		allocs := testing.AllocsPerRun(4*benchWindow, func() { deliver(i); i++ })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per delivery, want 0", w.name, allocs)
		}
	}
}
