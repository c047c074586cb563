package mwsvss

import (
	"math/rand"
	"testing"

	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

type benchCtx struct {
	n, t int
	rnd  *rand.Rand
}

func (c benchCtx) Send(sim.ProcID, sim.Payload) {}
func (c benchCtx) N() int                       { return c.n }
func (c benchCtx) T() int                       { return c.t }
func (c benchCtx) Now() int64                   { return 0 }
func (c benchCtx) Rand() *rand.Rand             { return c.rnd }

type benchHost struct {
	self sim.ProcID
	d    *dmm.DMM
}

func (h *benchHost) Self() sim.ProcID                         { return h.self }
func (h *benchHost) Broadcast(sim.Context, proto.Tag, []byte) {}
func (h *benchHost) DMM() *dmm.DMM                            { return h.d }

// benchWindow is the number of MW instance ids a warm workload cycles
// through, with a full engine and DMM reset per wrap, so the steady
// state exercises interned-id and slab reuse.
const benchWindow = 512

// warmEngine returns a fresh n=7/t=2 engine with its host and a context
// boxed once (a box per call would charge the caller's conversion to
// the measured path), plus the window of instance ids.
func warmEngine() (*Engine, *benchHost, sim.Context, []proto.MWID) {
	host := &benchHost{self: 1, d: dmm.New(1, nil)}
	var ctx sim.Context = benchCtx{n: 7, t: 2, rnd: rand.New(rand.NewSource(1))}
	ids := make([]proto.MWID, benchWindow)
	for i := range ids {
		ids[i] = proto.MWID{
			Session: proto.SessionID{Dealer: 2, Kind: proto.KindMW, Round: uint64(i)},
			Key:     proto.MWKey{Dealer: 2, Moderator: 3},
		}
	}
	return New(host, Callbacks{}), host, ctx, ids
}

// warmEcho returns the i-th delivery of the echo workload: a
// share-phase Echo from a new sender lands in the dense per-process
// value slice (step 3 feed), then advance re-evaluates the (unmet) step
// guards. One full window has already been delivered and reset.
func warmEcho() func(i int) {
	e, host, ctx, ids := warmEngine()
	msgs := make([]sim.Message, 2*len(ids))
	for i := range msgs {
		msgs[i] = sim.Message{
			From:    sim.ProcID(2 + i%2),
			To:      1,
			Payload: Echo{MW: ids[i/2], Vals: []field.Element{field.New(uint64(i))}},
		}
	}
	for i := range msgs {
		e.OnMessage(ctx, msgs[i])
	}
	e.Reset()
	host.d.Reset()
	return func(i int) {
		j := i % len(msgs)
		if j == 0 && i > 0 {
			e.Reset()
			host.d.Reset()
		}
		e.OnMessage(ctx, msgs[j])
	}
}

// warmAck returns the i-th delivery of the ack workload: an RB-accepted
// StepAck broadcast sets one bit in the ack set and re-evaluates. One
// full window has already been delivered and reset.
func warmAck() func(i int) {
	e, host, ctx, ids := warmEngine()
	tags := make([]proto.Tag, len(ids))
	for i := range tags {
		tags[i] = tag(ids[i], StepAck, 0)
	}
	for i := 0; i < 2*len(tags); i++ {
		e.OnBroadcast(ctx, sim.ProcID(2+i%2), tags[i/2], nil)
	}
	e.Reset()
	host.d.Reset()
	return func(i int) {
		j := i % (2 * len(tags))
		if j == 0 && i > 0 {
			e.Reset()
			host.d.Reset()
		}
		e.OnBroadcast(ctx, sim.ProcID(2+j%2), tags[j/2], nil)
	}
}

// BenchmarkMWSVSSDeliver measures the per-delivery cost of hot MW-SVSS
// message paths on warm instances, the echo and ack workloads above.
// Both must be allocation-free (TestMWSVSSDeliverWarmAllocatesNothing).
func BenchmarkMWSVSSDeliver(b *testing.B) {
	b.Run("echo", func(b *testing.B) { runWarm(b, warmEcho()) })
	b.Run("ack", func(b *testing.B) { runWarm(b, warmAck()) })
}

func runWarm(b *testing.B, deliver func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(i)
	}
}
