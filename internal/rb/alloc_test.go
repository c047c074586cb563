package rb

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// TestRBHandleWarmAllocatesNothing pins BenchmarkRBHandle's 0 allocs/op:
// on every warm workload but digest a delivery allocates nothing. Each
// run covers two wraps of the window, so the resets are averaged in;
// amortized slice growth stays below one allocation per delivery.
func TestRBHandleWarmAllocatesNothing(t *testing.T) {
	for _, w := range []struct {
		name string
		warm func(sim.Context) func(int)
	}{
		{"count", warmCount}, {"accepted", warmAccepted},
		{"type2", warmType2}, {"type2-accepted", warmWeakAccepted},
	} {
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
	// The type-2 and type-3 vote counters each copy the digest on first
	// sight, as they copy any instance's first value.
	digestEchoAllocs = 2
	// digestLifecycleAllocs: one whole digest instance at a process
	// that neither broadcasts nor consumes. The origin's body copied
	// once, its digest in the same allocation (the value handed to the
	// accept callback; a body over 32 KiB takes two, see
	// TestLargeBodyCopiedUnrounded); the type-2 echo boxed once for its n sends; the
	// two vote counters' digest copies (the type 3 sent at WRB
	// acceptance carries the type-2 counter's); the type 3 boxed once;
	// the push boxed once.
	digestLifecycleAllocs = 6
	// inlineLifecycleAllocs: the same lifecycle for a 16-byte value,
	// echoed inline. The type 2 echo boxed once (it carries the type 1's
	// view of the frame); the two vote counters' copies; the type 3
	// boxed once. The type 3 carries the type-2 counter's copy and the
	// accept callback gets the type-3 counter's.
	inlineLifecycleAllocs = 4
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
	var e *Engine
	e = New(1, func(ctx sim.Context, a Accept) {
		if len(a.Value) == 64 {
			accepts++
		}
		e.Push(ctx, a.Origin, a.Tag)
	})
	msgs := lifecycles(ctx, proto.ProtoBundle, bytes.Repeat([]byte{0xb0}, 64))
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

// lifecycles returns the deliveries of benchWindow whole instances at
// process 1, one per tag of namespace ns: origin 2's body, then n−t
// type 2 and n−t type 3 for its echo value — the body's digest from 32
// bytes on, the body itself below.
func lifecycles(ctx sim.Context, ns uint8, body []byte) []sim.Message {
	echo := body
	if len(body) >= proto.DigestSize {
		sum := sha256.Sum256(body)
		echo = sum[:]
	}
	quorum := ctx.N() - ctx.T()
	var msgs []sim.Message
	for w := 0; w < benchWindow; w++ {
		tag := proto.Tag{Proto: ns, A: uint32(w)}
		msgs = append(msgs, sim.Message{From: 2, To: 1,
			Payload: WeakMsg{Origin: 2, Tag: tag, Phase: Type1, Value: body}})
		for s := 1; s <= quorum; s++ {
			msgs = append(msgs, sim.Message{From: sim.ProcID(s), To: 1,
				Payload: WeakMsg{Origin: 2, Tag: tag, Phase: Type2, Value: echo}})
		}
		for s := 1; s <= quorum; s++ {
			msgs = append(msgs, sim.Message{From: sim.ProcID(s), To: 1,
				Payload: Msg{Origin: 2, Tag: tag, Value: echo}})
		}
	}
	return msgs
}

// TestOneSlotPerBroadcast: both phases of a broadcast share one
// interned id and one slab slot, for digest and inline instances alike.
// A window of W lifecycles leaves W live instances and a slab of W
// slots, not 2W.
func TestOneSlotPerBroadcast(t *testing.T) {
	ctx := benchContext()
	for _, size := range []int{64, 16} {
		accepts := 0
		e := New(1, func(sim.Context, Accept) { accepts++ })
		for _, m := range lifecycles(ctx, proto.ProtoBundle, bytes.Repeat([]byte{0xb0}, size)) {
			e.Handle(ctx, m)
		}
		if accepts != benchWindow || e.Live() != benchWindow || e.SlabCap() != benchWindow {
			t.Errorf("%d-byte bodies: %d accepts, %d live, slab %d; want %d each",
				size, accepts, e.Live(), e.SlabCap(), benchWindow)
		}
	}
}

// TestRBInlineInstanceAllocs pins an inline instance's allocations
// exactly, over whole windows of 1024 lifecycles like the digest ones:
// the per-delivery mean of TestRBHandleWarmAllocatesNothing would round
// a per-instance copy away.
func TestRBInlineInstanceAllocs(t *testing.T) {
	ctx := benchContext()
	value := bytes.Repeat([]byte{0xb0}, 16)
	accepts := 0
	e := New(1, func(_ sim.Context, a Accept) {
		if bytes.Equal(a.Value, value) {
			accepts++
		}
	})
	msgs := lifecycles(ctx, proto.ProtoBundle, value)
	lifecycle := func() {
		for _, m := range msgs {
			e.Handle(ctx, m)
		}
		e.Reset()
	}
	lifecycle()
	if accepts != benchWindow {
		t.Fatalf("%d of %d instances accepted the value", accepts, benchWindow)
	}
	allocs := testing.AllocsPerRun(4, lifecycle)
	if want := float64(inlineLifecycleAllocs * benchWindow); allocs != want {
		t.Errorf("%v allocs per window of %d instances, want exactly %v (%d each)",
			allocs, benchWindow, want, inlineLifecycleAllocs)
	}
}

// TestRBProposalInstanceAllocs: a proposal instance (ProtoACS) costs a
// bundle instance's allocations exactly, also when its consumer pushes
// only after the delivery returned, as acs does once the proposal's
// agreement decided 1. Each push frees the held slot for the next
// instance, so a window of lifecycles runs on one slot.
func TestRBProposalInstanceAllocs(t *testing.T) {
	ctx := benchContext()
	e := New(1, nil)
	msgs := lifecycles(ctx, proto.ProtoACS, bytes.Repeat([]byte{0xb0}, 64))
	per := len(msgs) / benchWindow
	pushes, slots := 0, 0
	lifecycle := func() {
		for w := 0; w < benchWindow; w++ {
			for _, m := range msgs[w*per : (w+1)*per] {
				e.Handle(ctx, m)
			}
			pushes += e.Push(ctx, 2, proto.Tag{Proto: proto.ProtoACS, A: uint32(w)})
		}
		slots = len(e.helds)
		e.Reset()
	}
	lifecycle()
	// Process 1 saw type 2s from 1..5: it pushes to 6 and 7.
	if pushes != 2*benchWindow || slots != 1 {
		t.Fatalf("%d pushes on %d held slots, want %d on 1", pushes, slots, 2*benchWindow)
	}
	allocs := testing.AllocsPerRun(4, lifecycle)
	if want := float64(digestLifecycleAllocs * benchWindow); allocs != want {
		t.Errorf("%v allocs per window of %d instances, want exactly %v (%d each)",
			allocs, benchWindow, want, digestLifecycleAllocs)
	}
}

// TestLargeBodyCopiedUnrounded: a frame body over 32 KiB is copied into
// an allocation of its own size, its digest apart. In one allocation
// with its digest a 64 KiB body would take 72 KiB: the runtime rounds
// large allocations up to whole 8 KiB pages.
func TestLargeBodyCopiedUnrounded(t *testing.T) {
	ctx := benchContext()
	const size, bodies = 64 << 10, 16
	value := bytes.Repeat([]byte{0xb0}, size)
	var msgs []sim.Message
	for w := 0; w < bodies; w++ {
		msgs = append(msgs, sim.Message{From: 2, To: 1, Payload: WeakMsg{
			Origin: 2, Tag: proto.Tag{Proto: proto.ProtoBundle, A: uint32(w)}, Phase: Type1, Value: value}})
	}
	e := New(1, nil)
	for _, m := range msgs { // warm the slabs and tables
		e.Handle(ctx, m)
	}
	e.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range msgs {
		e.Handle(ctx, m)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / bodies
	if per < size || per > size+1<<10 {
		t.Fatalf("%.0f bytes allocated per %d-byte body, want the body plus under 1 KiB", per, size)
	}
	if h := &e.helds[e.insts[0].held-1]; cap(h.own) != size {
		t.Fatalf("held body capacity %d, want %d", cap(h.own), size)
	}
}
