package rb

import (
	"math/rand"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// benchCtx is a sim.Context that discards sends: the benchmarks below
// measure the per-delivery state transition, not the send path.
type benchCtx struct {
	n, t int
	rnd  *rand.Rand
}

func (c benchCtx) Send(sim.ProcID, sim.Payload) {}
func (c benchCtx) N() int                       { return c.n }
func (c benchCtx) T() int                       { return c.t }
func (c benchCtx) Now() int64                   { return 0 }
func (c benchCtx) Rand() *rand.Rand             { return c.rnd }

func benchTags(w int) []proto.Tag {
	tags := make([]proto.Tag, w)
	for i := range tags {
		tags[i] = proto.Tag{Proto: proto.ProtoRB, Step: 1, A: uint32(i)}
	}
	return tags
}

// benchContext is the n=7/t=2 context the warm workloads run under,
// boxed once: the engines take an interface, and a fresh box per call
// would charge the caller's own conversion to the measured path.
func benchContext() sim.Context {
	return benchCtx{n: 7, t: 2, rnd: rand.New(rand.NewSource(1))}
}

// benchWindow is the number of tags a warm workload cycles through.
const benchWindow = 1024

// warmCount returns the i-th delivery of the count workload: a fresh
// echo (first from its sender) lands in a live instance's vote state,
// below every threshold. Two distinct senders per tag stay below the
// t+1 amplification threshold, so no instance ever sends or accepts.
// One full window has already been delivered and the engine reset, so
// slab, table and value copies exist; the engine resets again each time
// the window wraps, so the steady state exercises slab-slot and
// interned-id reuse.
func warmCount(ctx sim.Context) func(i int) {
	e := New(1, nil)
	tags := benchTags(benchWindow)
	value := []byte("echo-value")
	msgs := make([]sim.Message, 2*benchWindow)
	for i := range msgs {
		msgs[i] = sim.Message{
			From:    sim.ProcID(2 + i%2),
			To:      1,
			Payload: Msg{Origin: 2, Tag: tags[i/2], Value: value},
		}
	}
	for i := range msgs {
		e.Handle(ctx, msgs[i])
	}
	e.Reset()
	return func(i int) {
		j := i % len(msgs)
		if j == 0 && i > 0 {
			e.Reset()
		}
		e.Handle(ctx, msgs[j])
	}
}

// warmAccepted returns the i-th delivery of the accepted workload: a
// late echo of the storm tail hits an instance that already accepted
// and is dropped at the door (the pruning path).
func warmAccepted(ctx sim.Context) func(i int) {
	e := New(1, nil)
	tags := benchTags(benchWindow)
	value := []byte("echo-value")
	// Drive every instance to acceptance (n−t matching echoes)...
	for _, tag := range tags {
		for s := 2; s <= 2+(ctx.N()-ctx.T())-1; s++ {
			e.Handle(ctx, sim.Message{
				From:    sim.ProcID(s),
				To:      1,
				Payload: Msg{Origin: 2, Tag: tag, Value: value},
			})
		}
	}
	// ...then replay the storm tail: late echoes dropped on arrival.
	msgs := make([]sim.Message, benchWindow)
	for i := range msgs {
		msgs[i] = sim.Message{
			From:    7,
			To:      1,
			Payload: Msg{Origin: 2, Tag: tags[i], Value: value},
		}
	}
	return func(i int) { e.Handle(ctx, msgs[i%len(msgs)]) }
}

// BenchmarkRBHandle measures the per-delivery cost of the RB echo path
// — the single hottest code path in the stack (every broadcast costs
// ~n² of these) — on the count and accepted workloads above. Both must
// be allocation-free warm (TestRBHandleWarmAllocatesNothing).
func BenchmarkRBHandle(b *testing.B) {
	ctx := benchContext()
	b.Run("count", func(b *testing.B) { runWarm(b, warmCount(ctx)) })
	b.Run("accepted", func(b *testing.B) { runWarm(b, warmAccepted(ctx)) })
}

func runWarm(b *testing.B, deliver func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(i)
	}
}
