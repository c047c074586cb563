package rb

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/wrb"
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

// Per-instance allocation budgets of the digest path, pinned exactly
// by TestRBDigestInstanceAllocs over whole windows of instances, so a
// second per-instance allocation cannot round away over an instance's
// deliveries. Digest notes and held state come from the engines' slabs
// and cost nothing warm.
const (
	// digestEchoAllocs: the digest echoes of the warmDigest workload.
	// The WRB and RB vote counters each copy the digest on first sight,
	// as they copy any instance's first value.
	digestEchoAllocs = 2
	// digestLifecycleAllocs: one whole digest instance at a process
	// that neither broadcasts nor consumes. The origin's body copied
	// once, its digest in the same allocation (the value handed to the
	// accept callback); the WRB type-2 echo boxed once for its n sends;
	// the two vote counters' digest copies; the WRB accept's value copy;
	// the type 3 boxed once; the push boxed once.
	digestLifecycleAllocs = 7
)

// TestRBDigestInstanceAllocs pins the digest path's allocations per
// instance, one run per window of 1024 instances (the engine resets
// after each window). "echoes" is BenchmarkRBHandle's digest workload.
// In "lifecycle" each instance takes its origin's 64-byte body, n−t
// digest type 2s and n−t digest type 3s, accepts, and pushes to the one
// peer (7) whose type 2 it did not see.
func TestRBDigestInstanceAllocs(t *testing.T) {
	ctx := benchContext()
	deliver := warmDigest(ctx)
	per := ctx.N() - 1 // n−t−1 type 2s and t type 3s per instance
	i := 0
	echoes := func() {
		for end := i + per*benchWindow; i < end; i++ {
			deliver(i)
		}
	}

	accepts := 0
	e := New(1, func(_ sim.Context, a Accept) {
		if len(a.Value) == 64 {
			accepts++
		}
	})
	body := bytes.Repeat([]byte{0xb0}, 64)
	sum := sha256.Sum256(body)
	quorum := ctx.N() - ctx.T()
	var msgs []sim.Message
	for w := 0; w < benchWindow; w++ {
		tag := proto.Tag{Proto: proto.ProtoBundle, A: uint32(w)}
		msgs = append(msgs, sim.Message{From: 2, To: 1,
			Payload: wrb.Msg{Origin: 2, Tag: tag, Phase: wrb.Type1, Value: body}})
		for s := 1; s <= quorum; s++ {
			msgs = append(msgs, sim.Message{From: sim.ProcID(s), To: 1,
				Payload: wrb.Msg{Origin: 2, Tag: tag, Phase: wrb.Type2, Value: sum[:]}})
		}
		for s := 1; s <= quorum; s++ {
			msgs = append(msgs, sim.Message{From: sim.ProcID(s), To: 1,
				Payload: Msg{Origin: 2, Tag: tag, Value: sum[:]}})
		}
	}
	lifecycle := func() {
		for _, m := range msgs {
			e.Handle(ctx, m)
		}
		e.Reset()
	}
	lifecycle() // warm the slabs, tables and value buffers
	if accepts != benchWindow {
		t.Fatalf("%d of %d instances accepted the body", accepts, benchWindow)
	}

	for _, c := range []struct {
		name   string
		window func()
		budget int
	}{{"echoes", echoes, digestEchoAllocs}, {"lifecycle", lifecycle, digestLifecycleAllocs}} {
		allocs := testing.AllocsPerRun(4, c.window)
		if want := float64(c.budget * benchWindow); allocs != want {
			t.Errorf("%s: %v allocs per window of %d instances, want exactly %v (%d each)",
				c.name, allocs, benchWindow, want, c.budget)
		}
	}
}
