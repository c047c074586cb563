package core_test

import (
	"testing"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// acceptedEchoNode returns a wire-v2 node whose RB instance for
// (origin 2, tag) has accepted, and one more echo for it: the
// post-acceptance tail of an echo storm, the hottest delivery class.
func acceptedEchoNode(ctx sim.Context) (*core.Node, sim.Message) {
	nd := core.NewNode(1, nil)
	tag := proto.Tag{Proto: proto.ProtoRB, Step: 1, A: 9}
	echo := func(from sim.ProcID) sim.Message {
		return sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 2, Tag: tag, Value: []byte("v")}}
	}
	for from := sim.ProcID(2); from <= 4; from++ { // n−t = 3 echoes accept
		nd.Deliver(ctx, echo(from))
	}
	return nd, echo(1)
}

// TestDeliverAcceptedEchoAllocatesNothing pins the warm wire-v2
// delivery path at zero allocations: the burst context is boxed once per
// node, not per Deliver, and the RB drop needs no key allocation.
func TestDeliverAcceptedEchoAllocatesNothing(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd, m := acceptedEchoNode(ctx)
	if allocs := testing.AllocsPerRun(100, func() { nd.Deliver(ctx, m) }); allocs != 0 {
		t.Fatalf("Deliver of an accepted echo: %v allocs, want 0", allocs)
	}
}

// uncomparableCtx is a context whose dynamic value cannot be compared
// with == (the slice field); wrapping it must not panic.
type uncomparableCtx struct {
	*testutil.Ctx
	_ []int
}

// TestNodeWrapFollowsTheContext: the node reuses its wrapper only for
// the context it was built for — each delivery's sends land in that
// delivery's context, with and without a send tamper, including for a
// context that cannot be compared.
func TestNodeWrapFollowsTheContext(t *testing.T) {
	for _, tamper := range []bool{false, true} {
		nd := core.NewNode(1, nil)
		if tamper {
			nd.SetSendTamper(func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) { return p, true })
		}
		nd.HandleDirect("test/plain", func(ctx sim.Context, m sim.Message) { ctx.Send(2, m.Payload) })
		a, b := testutil.NewCtx(1, 4, 1), testutil.NewCtx(1, 4, 1)
		u := uncomparableCtx{Ctx: testutil.NewCtx(1, 4, 1)}
		for _, ctx := range []sim.Context{a, b, u, u, a} {
			nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: plain{V: 1}})
		}
		if len(a.Sent) != 2 || len(b.Sent) != 1 || len(u.Sent) != 2 {
			t.Errorf("tamper=%v: sends a=%d b=%d u=%d, want 2, 1, 2", tamper, len(a.Sent), len(b.Sent), len(u.Sent))
		}
	}
}

// BenchmarkNodeDeliverAcceptedEcho measures the Deliver of an
// echo into an accepted RB instance (see the allocation test above).
func BenchmarkNodeDeliverAcceptedEcho(b *testing.B) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd, m := acceptedEchoNode(ctx)
	b.ReportAllocs()
	for b.Loop() {
		nd.Deliver(ctx, m)
	}
}
