package core_test

import (
	"testing"

	"svssba/internal/core"
	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// sessioned is a test payload carrying a session reference.
type sessioned struct {
	Ref proto.MWID
	V   int
}

func (sessioned) Kind() string             { return "test/sessioned" }
func (sessioned) Size() int                { return 8 }
func (s sessioned) SessionRef() proto.MWID { return s.Ref }

// plain is a test payload without a session.
type plain struct{ V int }

func (plain) Kind() string { return "test/plain" }
func (plain) Size() int    { return 8 }

func mwref(round uint64) proto.MWID {
	return proto.MWID{Session: proto.SessionID{Dealer: 3, Kind: proto.KindMW, Round: round}}
}

func TestNodeRoutesDirectByKind(t *testing.T) {
	n := core.NewNode(1, nil)
	got := 0
	n.HandleDirect("test/plain", func(_ sim.Context, m sim.Message) {
		got = m.Payload.(plain).V
	})
	ctx := testutil.NewCtx(1, 4, 1)
	n.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: plain{V: 7}})
	if got != 7 {
		t.Errorf("got %d", got)
	}
	// Unknown kinds are dropped silently.
	n.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: sessioned{V: 9}})
}

func TestNodeDiscardsFromDi(t *testing.T) {
	n := core.NewNode(1, nil)
	calls := 0
	n.HandleDirect("test/plain", func(sim.Context, sim.Message) { calls++ })
	// Put 2 into D_1 via a contradicted expectation.
	s := mwref(1)
	n.DMM().Expect(dmm.Expectation{Sender: 2, Target: 1, Session: s, Value: field.New(5), Source: dmm.SourceDEAL})
	n.DMM().ObserveValueBroadcast(2, s, 1, 0, field.New(6))
	ctx := testutil.NewCtx(1, 4, 1)
	n.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: plain{V: 1}})
	if calls != 0 {
		t.Error("message from D_i member delivered")
	}
	n.Deliver(ctx, sim.Message{From: 3, To: 1, Payload: plain{V: 1}})
	if calls != 1 {
		t.Error("message from honest process dropped")
	}
}

func TestNodeParksAndDrainsSessionedMessages(t *testing.T) {
	n := core.NewNode(1, nil)
	var delivered []int
	n.HandleDirect("test/sessioned", func(_ sim.Context, m sim.Message) {
		delivered = append(delivered, m.Payload.(sessioned).V)
	})
	ctx := testutil.NewCtx(1, 4, 1)

	// Create a stale expectation: session s1 completed with a pending
	// expectation from process 2.
	s1 := mwref(1)
	n.DMM().BeginShare(s1)
	n.DMM().Expect(dmm.Expectation{Sender: 2, Target: 1, Session: s1, Value: field.New(5), Source: dmm.SourceDEAL})
	n.DMM().CompleteReconstruct(s1)

	// A newer-session message from 2 is parked; from 3 it flows.
	s2 := mwref(2)
	n.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: sessioned{Ref: s2, V: 21}})
	n.Deliver(ctx, sim.Message{From: 3, To: 1, Payload: sessioned{Ref: s2, V: 31}})
	if len(delivered) != 1 || delivered[0] != 31 {
		t.Fatalf("delivered = %v, want [31]", delivered)
	}
	if n.DMM().ParkedCount() != 1 {
		t.Fatalf("parked = %d", n.DMM().ParkedCount())
	}

	// Resolving the expectation releases the parked message on the next
	// delivery's drain.
	n.DMM().ObserveValueBroadcast(2, s1, 1, 0, field.New(5))
	n.Deliver(ctx, sim.Message{From: 4, To: 1, Payload: plain{V: 0}})
	if len(delivered) != 2 || delivered[1] != 21 {
		t.Fatalf("delivered = %v, want [31 21]", delivered)
	}
}

func TestNodeBroadcastObserverRunsBeforeFilter(t *testing.T) {
	// The observer must see accepted broadcasts even when the broadcast
	// event itself ends up parked.
	n := core.NewNode(1, nil)
	observed := 0
	n.ObserveBroadcast(proto.ProtoMW, func(sim.ProcID, proto.Tag, []byte) { observed++ })
	handled := 0
	n.HandleBroadcast(proto.ProtoMW, func(sim.Context, sim.ProcID, proto.Tag, []byte) { handled++ })

	// Stale expectation from 2 delays session s2 events.
	s1, s2 := mwref(1), mwref(2)
	n.DMM().BeginShare(s1)
	n.DMM().Expect(dmm.Expectation{Sender: 2, Target: 1, Session: s1, Value: field.New(5), Source: dmm.SourceDEAL})
	n.DMM().CompleteReconstruct(s1)

	// Drive a full RB acceptance for origin 2 in session s2 by feeding
	// type-3 echoes from three distinct senders.
	ctx := testutil.NewCtx(1, 4, 1)
	tag := proto.Tag{Proto: proto.ProtoMW, Session: s2.Session, MW: s2.Key, Step: 9}
	for _, from := range []sim.ProcID{3, 4, 1} {
		n.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 2, Tag: tag, Value: []byte("x")}})
	}
	if observed != 1 {
		t.Errorf("observer calls = %d, want 1 (pre-filter)", observed)
	}
	if handled != 0 {
		t.Errorf("handler calls = %d, want 0 (parked)", handled)
	}
}

func TestNodeZeroSessionBroadcastBypassesFilter(t *testing.T) {
	n := core.NewNode(1, nil)
	handled := 0
	n.HandleBroadcast(proto.ProtoCoin, func(sim.Context, sim.ProcID, proto.Tag, []byte) { handled++ })

	// Even with a stale expectation from 2, session-less broadcasts flow.
	s1 := mwref(1)
	n.DMM().BeginShare(s1)
	n.DMM().Expect(dmm.Expectation{Sender: 2, Target: 1, Session: s1, Value: field.New(5), Source: dmm.SourceDEAL})
	n.DMM().CompleteReconstruct(s1)

	ctx := testutil.NewCtx(1, 4, 1)
	tag := proto.Tag{Proto: proto.ProtoCoin, Step: 1, A: 1}
	for _, from := range []sim.ProcID{3, 4, 1} {
		n.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 2, Tag: tag, Value: []byte("x")}})
	}
	if handled != 1 {
		t.Errorf("handled = %d, want 1", handled)
	}
}

// TestBundledProposalDigestIgnored: a ProtoACS item inside an accepted
// bundle is not dispatched (acs never bundles its proposals, so it is a
// second announcement); its neighbours are.
func TestBundledProposalDigestIgnored(t *testing.T) {
	n := core.NewNode(1, nil)
	var acs, coin int
	n.HandleBroadcast(proto.ProtoACS, func(sim.Context, sim.ProcID, proto.Tag, []byte) { acs++ })
	n.HandleBroadcast(proto.ProtoCoin, func(sim.Context, sim.ProcID, proto.Tag, []byte) { coin++ })
	body := proto.EncodeBundle(
		[]proto.Tag{{Proto: proto.ProtoACS, A: 7}, {Proto: proto.ProtoCoin, Step: 1, A: 1}},
		[][]byte{[]byte("digest"), []byte("x")},
	)
	ctx := testutil.NewCtx(1, 4, 1)
	for _, from := range []sim.ProcID{3, 4, 1} {
		n.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 2, Tag: proto.Tag{Proto: proto.ProtoBundle}, Value: body}})
	}
	if acs != 0 || coin != 1 {
		t.Errorf("dispatched %d ProtoACS and %d ProtoCoin bundle items, want 0 and 1", acs, coin)
	}
}

func TestNodeSendTamperAppliesToAllSends(t *testing.T) {
	n := core.NewNode(1, nil)
	n.SetSendTamper(func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
		if pl, ok := p.(plain); ok {
			return plain{V: pl.V + 100}, true
		}
		return p, true
	})
	n.HandleDirect("test/plain", func(ctx sim.Context, m sim.Message) {
		ctx.Send(2, plain{V: 1})
	})
	ctx := testutil.NewCtx(1, 4, 1)
	n.Deliver(ctx, sim.Message{From: 3, To: 1, Payload: plain{V: 0}})
	if len(ctx.Sent) != 1 {
		t.Fatalf("sent = %d", len(ctx.Sent))
	}
	if got := ctx.Sent[0].Payload.(plain).V; got != 101 {
		t.Errorf("tampered value = %d, want 101", got)
	}
}

func TestNodeBcastTamperRewritesValue(t *testing.T) {
	n := core.NewNode(1, nil)
	n.SetBcastTamper(func(_ sim.Context, _ proto.Tag, v []byte) ([]byte, bool) {
		return append(v, '!'), true
	})
	ctx := testutil.NewCtx(1, 4, 1)
	n.Broadcast(ctx, proto.Tag{Proto: proto.ProtoCoin, Step: 1}, []byte("v"))
	// The WRB type-1 fan-out must carry the tampered value.
	if len(ctx.Sent) != 4 {
		t.Fatalf("sent = %d", len(ctx.Sent))
	}
	m := ctx.Sent[0].Payload.(rb.WeakMsg)
	if string(m.Value) != "v!" {
		t.Errorf("value = %q", m.Value)
	}
}

func TestNodeBcastTamperCanDrop(t *testing.T) {
	n := core.NewNode(1, nil)
	n.SetBcastTamper(func(sim.Context, proto.Tag, []byte) ([]byte, bool) { return nil, false })
	ctx := testutil.NewCtx(1, 4, 1)
	n.Broadcast(ctx, proto.Tag{Proto: proto.ProtoCoin, Step: 1}, []byte("v"))
	if len(ctx.Sent) != 0 {
		t.Errorf("dropped broadcast still sent %d messages", len(ctx.Sent))
	}
}

func TestStackConsumersRouteByKind(t *testing.T) {
	st := core.NewStack(1, nil)
	appEvents, mwEvents := 0, 0
	st.ConsumeSVSS(proto.KindApp, core.SVSSConsumer{
		ShareComplete: func(sim.Context, proto.SessionID) { appEvents++ },
	})
	st.ConsumeMW(core.MWConsumer{
		ShareComplete: func(sim.Context, proto.MWID) { mwEvents++ },
	})
	// Smoke: the stack exposes all engines.
	if st.Node == nil || st.MW == nil || st.SVSS == nil || st.Coin == nil || st.ABA == nil {
		t.Fatal("stack missing engines")
	}
	if _, decided := st.ABA.Decided(); decided {
		t.Error("fresh engine decided")
	}
}

func TestNewCodecCoversStackMessages(t *testing.T) {
	c := core.NewCodec()
	// A representative message of each layer must round-trip.
	msgs := []sim.Payload{
		rb.WeakMsg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoMW}, Phase: 1, Value: []byte("a")},
		rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoMW}, Value: []byte("b")},
	}
	for _, in := range msgs {
		b, err := c.Encode(in)
		if err != nil {
			t.Fatalf("encode %s: %v", in.Kind(), err)
		}
		if _, err := c.Decode(b); err != nil {
			t.Fatalf("decode %s: %v", in.Kind(), err)
		}
	}
}
