package wrb

import (
	"fmt"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

var testTag = proto.Tag{Proto: proto.ProtoWRB, Step: 1}

// harness wires n WRB engines into a network. Faulty processes are built
// by the provided factories instead.
type harness struct {
	nw       *sim.Network
	accepted map[sim.ProcID][]string
	honest   []sim.ProcID
}

func newHarness(t *testing.T, n, tf int, seed int64, dealer sim.ProcID, value string,
	faulty map[sim.ProcID]func(id sim.ProcID) sim.Handler) *harness {
	t.Helper()
	h := &harness{
		nw:       sim.NewNetwork(n, tf, seed),
		accepted: make(map[sim.ProcID][]string),
	}
	for p := 1; p <= n; p++ {
		id := sim.ProcID(p)
		if mk, ok := faulty[id]; ok {
			if err := h.nw.Register(mk(id)); err != nil {
				t.Fatalf("register faulty %d: %v", id, err)
			}
			continue
		}
		h.honest = append(h.honest, id)
		eng := New(id, func(ctx sim.Context, a Accept) {
			h.accepted[id] = append(h.accepted[id], string(a.Value))
		})
		var onInit func(sim.Context)
		if id == dealer {
			onInit = func(ctx sim.Context) { eng.Broadcast(ctx, testTag, []byte(value)) }
		}
		node := testutil.NewNode(id, onInit, func(ctx sim.Context, m sim.Message) {
			eng.Handle(ctx, m)
		})
		if err := h.nw.Register(node); err != nil {
			t.Fatalf("register %d: %v", id, err)
		}
	}
	return h
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	if _, err := h.nw.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// distinctAccepted returns the set of distinct values accepted by honest
// processes and whether any honest process accepted more than once.
func (h *harness) distinctAccepted() (map[string]bool, bool) {
	vals := make(map[string]bool)
	multi := false
	for _, id := range h.honest {
		if len(h.accepted[id]) > 1 {
			multi = true
		}
		for _, v := range h.accepted[id] {
			vals[v] = true
		}
	}
	return vals, multi
}

func TestHonestDealerAllAccept(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		t.Run(fmt.Sprintf("n%d_t%d", cfg.n, cfg.t), func(t *testing.T) {
			h := newHarness(t, cfg.n, cfg.t, 1, 1, "v", nil)
			h.run(t)
			for _, id := range h.honest {
				if got := h.accepted[id]; len(got) != 1 || got[0] != "v" {
					t.Errorf("process %d accepted %v, want [v]", id, got)
				}
			}
		})
	}
}

func TestHonestDealerWithSilentFaults(t *testing.T) {
	// t processes silent: the remaining n-t honest ones must still accept.
	faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
		3: func(id sim.ProcID) sim.Handler { return testutil.Silent(id) },
	}
	h := newHarness(t, 4, 1, 2, 1, "v", faulty)
	h.run(t)
	for _, id := range h.honest {
		if got := h.accepted[id]; len(got) != 1 || got[0] != "v" {
			t.Errorf("process %d accepted %v, want [v]", id, got)
		}
	}
}

// equivocatingDealer sends different type 1 values to different halves.
type equivocatingDealer struct {
	id sim.ProcID
}

func (d *equivocatingDealer) ID() sim.ProcID { return d.id }

func (d *equivocatingDealer) Init(ctx sim.Context) {
	for p := 1; p <= ctx.N(); p++ {
		v := "a"
		if p%2 == 0 {
			v = "b"
		}
		ctx.Send(sim.ProcID(p), Msg{Origin: d.id, Tag: testTag, Phase: 1, Value: []byte(v)})
	}
}

func (d *equivocatingDealer) Deliver(sim.Context, sim.Message) {}

func TestEquivocatingDealerNeverDisagrees(t *testing.T) {
	// Correctness: whatever the schedule, honest processes never accept
	// two different values (they may accept nothing).
	for seed := int64(0); seed < 50; seed++ {
		faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
			1: func(id sim.ProcID) sim.Handler { return &equivocatingDealer{id: id} },
		}
		h := newHarness(t, 4, 1, seed, 0, "", faulty)
		h.run(t)
		vals, multi := h.distinctAccepted()
		if len(vals) > 1 {
			t.Fatalf("seed %d: honest processes accepted distinct values %v", seed, vals)
		}
		if multi {
			t.Fatalf("seed %d: a process accepted twice", seed)
		}
	}
}

// doubleVoter echoes two different type-2 values for the same instance.
type doubleVoter struct {
	id sim.ProcID
}

func (d *doubleVoter) ID() sim.ProcID       { return d.id }
func (d *doubleVoter) Init(ctx sim.Context) {}

func (d *doubleVoter) Deliver(ctx sim.Context, m sim.Message) {
	msg, ok := m.Payload.(Msg)
	if !ok || msg.Phase != 1 {
		return
	}
	for p := 1; p <= ctx.N(); p++ {
		ctx.Send(sim.ProcID(p), Msg{Origin: msg.Origin, Tag: msg.Tag, Phase: 2, Value: []byte("x")})
		ctx.Send(sim.ProcID(p), Msg{Origin: msg.Origin, Tag: msg.Tag, Phase: 2, Value: []byte("y")})
	}
}

func TestDoubleVoterCannotForgeAcceptance(t *testing.T) {
	// An honest dealer broadcasts "v"; a faulty process votes for other
	// values twice. Honest processes must still accept only "v".
	for seed := int64(0); seed < 20; seed++ {
		faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
			4: func(id sim.ProcID) sim.Handler { return &doubleVoter{id: id} },
		}
		h := newHarness(t, 4, 1, seed, 1, "v", faulty)
		h.run(t)
		vals, _ := h.distinctAccepted()
		if len(vals) != 1 || !vals["v"] {
			t.Fatalf("seed %d: accepted %v, want only v", seed, vals)
		}
	}
}

func TestUnitDuplicateType2CountedOnce(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	var accepts []Accept
	e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
	// Three type-2 messages from the same sender must count once:
	// acceptance requires n-t = 3 distinct senders.
	for i := 0; i < 3; i++ {
		e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Phase: 2, Value: []byte("v")}})
	}
	if len(accepts) != 0 {
		t.Fatal("accepted from duplicate votes of one sender")
	}
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Phase: 2, Value: []byte("v")}})
	e.Handle(ctx, sim.Message{From: 4, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Phase: 2, Value: []byte("v")}})
	if len(accepts) != 1 {
		t.Fatalf("accepts = %d, want 1", len(accepts))
	}
}

func TestUnitType1FromNonDealerIgnored(t *testing.T) {
	// Under a bundle tag too: a bundle body from a non-origin is a push
	// (package rb), never a reason to echo.
	bundle := proto.Tag{Proto: proto.ProtoBundle, A: 1}
	for _, tc := range []struct {
		tag   proto.Tag
		value []byte
	}{{testTag, []byte("v")}, {bundle, []byte("v")}, {bundle, make([]byte, 200)}} {
		ctx := testutil.NewCtx(1, 4, 1)
		e := New(1, nil)
		// Type 1 claiming origin 3 but sent by 2: no echo may be produced.
		e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: Msg{Origin: 3, Tag: tc.tag, Phase: 1, Value: tc.value}})
		if len(ctx.Sent) != 0 {
			t.Fatalf("tag %v: echoed a spoofed type 1: %d sends", tc.tag, len(ctx.Sent))
		}
		// Genuine type 1 from the dealer: echo to all n processes.
		e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: Msg{Origin: 3, Tag: tc.tag, Phase: 1, Value: tc.value}})
		if len(ctx.Sent) != 4 {
			t.Fatalf("tag %v: sent %d echoes, want 4", tc.tag, len(ctx.Sent))
		}
	}
}

func TestUnitSecondType1DoesNotReEcho(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Phase: 1, Value: []byte("v")}})
	ctx.Drain()
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Phase: 1, Value: []byte("w")}})
	if len(ctx.Sent) != 0 {
		t.Fatal("echoed a second type 1 for the same instance")
	}
}

func TestUnitInstancesAreIndependent(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	var accepts []Accept
	e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
	tag2 := testTag
	tag2.Step = 2
	for _, from := range []sim.ProcID{2, 3, 4} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Phase: 2, Value: []byte("v")}})
	}
	// Votes under tag2 must not have contributed to testTag's instance.
	if len(accepts) != 1 {
		t.Fatalf("accepts = %d, want 1", len(accepts))
	}
	if accepts[0].Tag != testTag {
		t.Errorf("accept tag = %v", accepts[0].Tag)
	}
}

func TestMsgKinds(t *testing.T) {
	if (Msg{Phase: 1}).Kind() != KindType1 {
		t.Error("phase 1 kind")
	}
	if (Msg{Phase: 2}).Kind() != KindType2 {
		t.Error("phase 2 kind")
	}
}

func TestMsgCodecRoundTrip(t *testing.T) {
	c := proto.NewCodec()
	RegisterCodec(c)
	in := Msg{Origin: 3, Tag: testTag, Phase: 2, Value: []byte("abc")}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// kind code, origin, tag (Proto, mask, Step), phase, length, value.
	if want := 1 + 2 + 3 + 1 + 1 + 3; len(b) != want || in.Size()+1 != want {
		t.Errorf("size mismatch: encoded %d, Size()+code %d, want %d", len(b), in.Size()+1, want)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := out.(Msg)
	if !ok || got.Origin != in.Origin || got.Tag != in.Tag || got.Phase != in.Phase || string(got.Value) != "abc" {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

// TestUnitDigestSendersNotedUntilSettle: under a bundle tag, WRB notes
// which senders' type 2 carried each 32-byte digest — first type 2 per
// sender, also after its own acceptance — and Settle returns the
// senders of the asked digest and ends the instance.
func TestUnitDigestSendersNotedUntilSettle(t *testing.T) {
	ctx := testutil.NewCtx(1, 7, 2)
	accepts := 0
	e := New(1, func(sim.Context, Accept) { accepts++ })
	tag := proto.Tag{Proto: proto.ProtoBundle, A: 3}
	h, other := make([]byte, proto.BundleDigestSize), make([]byte, proto.BundleDigestSize)
	h[0], other[0] = 1, 2
	type2 := func(from sim.ProcID, v []byte) {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: tag, Phase: 2, Value: v}})
	}
	type2(6, other)
	type2(6, h) // a second type 2 from 6: not noted
	for _, from := range []sim.ProcID{2, 3, 4, 5, 7} {
		type2(from, h)
	}
	if accepts != 1 {
		t.Fatalf("accepts = %d, want 1", accepts)
	}
	type2(1, h) // after acceptance: still noted
	got := e.Settle(3, tag, h)
	if fmt.Sprint(got.Slice()) != "[1 2 3 4 5 7]" {
		t.Fatalf("Settle = %v, want [1 2 3 4 5 7]", got.Slice())
	}
	if s := e.Settle(3, tag, h); s.Count() != 0 {
		t.Fatalf("second Settle = %v, want empty", s.Slice())
	}
	// A settled instance still echoes its origin's type 1.
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: Msg{Origin: 3, Tag: tag, Phase: 1, Value: h}})
	if len(ctx.Sent) != 7 {
		t.Fatalf("settled instance sent %d echoes for the origin's type 1, want 7", len(ctx.Sent))
	}
}
