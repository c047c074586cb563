package rb

import (
	"crypto/sha256"
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
func warmCount(ctx sim.Context) func(i int) {
	return warmWindow(ctx, pairs(func(tag proto.Tag) sim.Payload {
		return Msg{Origin: 2, Tag: tag, Value: []byte("echo-value")}
	}))
}

// warmType2 returns the i-th delivery of the type-2 workload: the count
// workload in the WRB phase. Two type 2s per tag stay below the n−t
// acceptance threshold.
func warmType2(ctx sim.Context) func(i int) {
	return warmWindow(ctx, pairs(func(tag proto.Tag) sim.Payload {
		return WeakMsg{Origin: 2, Tag: tag, Phase: Type2, Value: []byte("echo-value")}
	}))
}

// pairs returns the payload of each window tag from senders 2 and 3.
func pairs(payload func(proto.Tag) sim.Payload) []sim.Message {
	msgs := make([]sim.Message, 2*benchWindow)
	for i, tag := range benchTags(benchWindow) {
		p := payload(tag)
		msgs[2*i] = sim.Message{From: 2, To: 1, Payload: p}
		msgs[2*i+1] = sim.Message{From: 3, To: 1, Payload: p}
	}
	return msgs
}

// warmWindow returns a workload cycling through msgs. One full window
// has already been delivered and the engine reset, so slab, table and
// value buffers exist; the engine resets again each time the window
// wraps, so the steady state exercises slab-slot and interned-id reuse.
func warmWindow(ctx sim.Context, msgs []sim.Message) func(i int) {
	e := New(1, nil)
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

// warmDigest returns the i-th delivery of the digest workload: echoes
// on bundle tags carrying 32-byte digests, as a storm brings them but
// below every threshold — per tag, a type 2 from each of n−t−1 senders
// and a type 3 from each of t. Each tag's first deliveries pay its
// instance's value copies (TestRBDigestInstanceAllocs pins them per
// instance); the digest notes come from the held slab. The engine
// resets when the window wraps, as in the count workload.
func warmDigest(ctx sim.Context) func(i int) {
	sum := sha256.Sum256([]byte("bundle body"))
	type2s, type3s := ctx.N()-ctx.T()-1, ctx.T()
	per := type2s + type3s
	msgs := make([]sim.Message, per*benchWindow)
	for i := range msgs {
		tag := proto.Tag{Proto: proto.ProtoBundle, A: uint32(i / per)}
		j := i % per
		var p sim.Payload = WeakMsg{Origin: 2, Tag: tag, Phase: Type2, Value: sum[:]}
		if j >= type2s {
			j -= type2s
			p = Msg{Origin: 2, Tag: tag, Value: sum[:]}
		}
		msgs[i] = sim.Message{From: sim.ProcID(2 + j), To: 1, Payload: p}
	}
	return warmWindow(ctx, msgs)
}

// warmAccepted returns the i-th delivery of the accepted workload: a
// late echo of the storm tail hits an instance that already accepted
// and is dropped at the door (the pruning path).
func warmAccepted(ctx sim.Context) func(i int) {
	return warmTail(ctx, func(tag proto.Tag) sim.Payload {
		return Msg{Origin: 2, Tag: tag, Value: []byte("echo-value")}
	})
}

// warmWeakAccepted returns the i-th delivery of the type-2 tail: a late
// type 2 hits an instance whose WRB phase already accepted (and sent
// its type 3), and skips the vote state.
func warmWeakAccepted(ctx sim.Context) func(i int) {
	return warmTail(ctx, func(tag proto.Tag) sim.Payload {
		return WeakMsg{Origin: 2, Tag: tag, Phase: Type2, Value: []byte("echo-value")}
	})
}

// warmTail drives every window tag's instance to acceptance with n−t
// matching echoes from senders 2.., then cycles the tail: one more from
// sender 7 per tag, dropped on arrival.
func warmTail(ctx sim.Context, payload func(proto.Tag) sim.Payload) func(i int) {
	e := New(1, nil)
	tags := benchTags(benchWindow)
	for _, tag := range tags {
		for s := 2; s <= 2+(ctx.N()-ctx.T())-1; s++ {
			e.Handle(ctx, sim.Message{From: sim.ProcID(s), To: 1, Payload: payload(tag)})
		}
	}
	msgs := make([]sim.Message, benchWindow)
	for i := range msgs {
		msgs[i] = sim.Message{From: 7, To: 1, Payload: payload(tags[i])}
	}
	return func(i int) { e.Handle(ctx, msgs[i%len(msgs)]) }
}

// BenchmarkRBHandle measures the per-delivery cost of the echo path —
// the single hottest code path in the stack (every broadcast costs
// ~2n² of these) — on the workloads above. All but digest must be
// allocation-free warm (TestRBHandleWarmAllocatesNothing); digest pays
// a fixed budget per instance (TestRBDigestInstanceAllocs).
func BenchmarkRBHandle(b *testing.B) {
	ctx := benchContext()
	b.Run("count", func(b *testing.B) { runWarm(b, warmCount(ctx)) })
	b.Run("accepted", func(b *testing.B) { runWarm(b, warmAccepted(ctx)) })
	b.Run("type2", func(b *testing.B) { runWarm(b, warmType2(ctx)) })
	b.Run("type2-accepted", func(b *testing.B) { runWarm(b, warmWeakAccepted(ctx)) })
	b.Run("digest", func(b *testing.B) { runWarm(b, warmDigest(ctx)) })
}

func runWarm(b *testing.B, deliver func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(i)
	}
}
