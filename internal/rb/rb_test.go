package rb

import (
	"fmt"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

var testTag = proto.Tag{Proto: proto.ProtoRB, Step: 1}

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
	if _, err := h.nw.Run(2_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
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

// equivocator sends WRB type-1 "a" to odd processes and "b" to even ones,
// then stays silent.
type equivocator struct {
	id sim.ProcID
}

func (d *equivocator) ID() sim.ProcID { return d.id }

func (d *equivocator) Init(ctx sim.Context) {
	for p := 1; p <= ctx.N(); p++ {
		v := "a"
		if p%2 == 0 {
			v = "b"
		}
		ctx.Send(sim.ProcID(p), WeakMsg{Origin: d.id, Tag: testTag, Phase: 1, Value: []byte(v)})
	}
}

func (d *equivocator) Deliver(sim.Context, sim.Message) {}

// TestRBTotality is the paper's Termination property: for every schedule,
// either no honest process accepts, or every honest process accepts the
// same single value.
func TestRBTotalityUnderEquivocation(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
			2: func(id sim.ProcID) sim.Handler { return &equivocator{id: id} },
		}
		h := newHarness(t, 4, 1, seed, 0, "", faulty)
		h.run(t)
		counts := make(map[string]int)
		accepters := 0
		for _, id := range h.honest {
			if len(h.accepted[id]) > 1 {
				t.Fatalf("seed %d: process %d accepted twice", seed, id)
			}
			if len(h.accepted[id]) == 1 {
				accepters++
				counts[h.accepted[id][0]]++
			}
		}
		if len(counts) > 1 {
			t.Fatalf("seed %d: distinct values accepted: %v", seed, counts)
		}
		if accepters != 0 && accepters != len(h.honest) {
			t.Fatalf("seed %d: only %d of %d honest accepted (totality violated)",
				seed, accepters, len(h.honest))
		}
	}
}

// echoForger injects forged type-3 echoes for a value nobody broadcast.
type echoForger struct {
	id sim.ProcID
}

func (d *echoForger) ID() sim.ProcID { return d.id }

func (d *echoForger) Init(ctx sim.Context) {
	for p := 1; p <= ctx.N(); p++ {
		ctx.Send(sim.ProcID(p), Msg{Origin: 1, Tag: testTag, Value: []byte("forged")})
	}
}

func (d *echoForger) Deliver(sim.Context, sim.Message) {}

func TestForgedEchoesCannotDefeatCorrectness(t *testing.T) {
	// Dealer 1 is honest with value "v"; process 4 forges echoes for
	// "forged". t+1=2 > 1 forger, so "forged" can never reach t+1 echoes
	// from distinct processes, let alone n-t.
	for seed := int64(0); seed < 30; seed++ {
		faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
			4: func(id sim.ProcID) sim.Handler { return &echoForger{id: id} },
		}
		h := newHarness(t, 4, 1, seed, 1, "v", faulty)
		h.run(t)
		for _, id := range h.honest {
			if got := h.accepted[id]; len(got) != 1 || got[0] != "v" {
				t.Fatalf("seed %d: process %d accepted %v, want [v]", seed, id, got)
			}
		}
	}
}

func TestUnitAmplificationAfterTPlus1(t *testing.T) {
	// After t+1 distinct echoes for v, the engine echoes v itself even if
	// WRB never accepted (step 3).
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Value: []byte("v")}})
	if len(ctx.Sent) != 0 {
		t.Fatal("echoed after a single type 3")
	}
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Value: []byte("v")}})
	sent := ctx.Drain()
	if len(sent) != 4 {
		t.Fatalf("sent %d messages after t+1 echoes, want 4", len(sent))
	}
	for _, m := range sent {
		e3, ok := m.Payload.(Msg)
		if !ok || string(e3.Value) != "v" {
			t.Fatalf("unexpected amplification payload %v", m.Payload)
		}
	}
}

func TestUnitAcceptAfterNMinusT(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	var accepts []Accept
	e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
	for _, from := range []sim.ProcID{2, 3, 4} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Value: []byte("v")}})
	}
	if len(accepts) != 1 || string(accepts[0].Value) != "v" {
		t.Fatalf("accepts = %v", accepts)
	}
	// Further echoes must not re-accept.
	e.Handle(ctx, sim.Message{From: 1, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Value: []byte("v")}})
	if len(accepts) != 1 {
		t.Fatal("accepted twice")
	}
}

func TestUnitMixedValuesDoNotAccumulate(t *testing.T) {
	ctx := testutil.NewCtx(1, 5, 1)
	var accepts []Accept
	e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
	vals := []string{"a", "b", "c", "d"}
	for i, from := range []sim.ProcID{2, 3, 4, 5} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: testTag, Value: []byte(vals[i])}})
	}
	if len(accepts) != 0 {
		t.Fatalf("accepted from mixed echoes: %v", accepts)
	}
}

// TestUnitNonWireIDsNeverMerge: a type 2 or type 3 whose origin or tag
// process ids do not fit the wire's 16 bits is dropped — it creates no
// instance and, in particular, does not count toward the instance its
// ids would alias if truncated (3 + 2¹⁶ → 3), which here would complete
// the n−t = 3 quorum. The phases run on separate engines, so the WRB
// phase's acceptance shows as the type 3 it sends.
func TestUnitNonWireIDsNeverMerge(t *testing.T) {
	const big = sim.ProcID(3 + 1<<16)
	tag := proto.Tag{Proto: proto.ProtoMW, Session: proto.SessionID{Dealer: 3, Kind: proto.KindCoin}, MW: proto.MWKey{Dealer: 3, Moderator: 3}}
	for i, alias := range []func(o *sim.ProcID, t *proto.Tag){
		func(o *sim.ProcID, _ *proto.Tag) { *o = big },
		func(_ *sim.ProcID, t *proto.Tag) { t.Session.Dealer = big },
		func(_ *sim.ProcID, t *proto.Tag) { t.MW.Dealer = big },
		func(_ *sim.ProcID, t *proto.Tag) { t.MW.Moderator = big },
	} {
		origin, bad := sim.ProcID(3), tag
		alias(&origin, &bad)
		accepts := 0
		e := New(1, func(sim.Context, Accept) { accepts++ })
		ctx := testutil.NewCtx(1, 4, 1)
		w := New(1, nil)
		wctx := testutil.NewCtx(1, 4, 1)
		for _, from := range []sim.ProcID{2, 3} {
			e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: tag, Value: []byte("v")}})
			w.Handle(wctx, sim.Message{From: from, To: 1, Payload: WeakMsg{Origin: 3, Tag: tag, Phase: Type2, Value: []byte("v")}})
		}
		e.Handle(ctx, sim.Message{From: 4, To: 1, Payload: Msg{Origin: origin, Tag: bad, Value: []byte("v")}})
		w.Handle(wctx, sim.Message{From: 4, To: 1, Payload: WeakMsg{Origin: origin, Tag: bad, Phase: Type2, Value: []byte("v")}})
		if accepts != 0 || len(wctx.Sent) != 0 || e.Live() != 1 || w.Live() != 1 {
			t.Errorf("alias %d: accepts %d, type 3s at WRB acceptance %d, live %d and %d; want 0, 0, 1, 1",
				i, accepts, len(wctx.Sent), e.Live(), w.Live())
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := proto.NewCodec()
	RegisterCodec(c)
	// Frame sizes: kind code, origin (2), tag (Proto, mask, Step: 3),
	// a phase byte for types 1 and 2, then the uvarint value length and value.
	msgs := []struct {
		p    sim.Payload
		kind string
		size int
	}{
		{Msg{Origin: 2, Tag: testTag, Value: []byte("xyz")}, "rb/type3", 1 + 2 + 3 + 1 + 3},
		{Msg{Origin: 2, Tag: testTag, Value: make([]byte, 127)}, "rb/type3", 1 + 2 + 3 + 1 + 127},
		{Msg{Origin: 2, Tag: testTag, Value: make([]byte, 128)}, "rb/type3", 1 + 2 + 3 + 2 + 128},
		{Msg{Origin: 2, Tag: testTag, Value: make([]byte, 16384)}, "rb/type3", 1 + 2 + 3 + 3 + 16384},
		{WeakMsg{Origin: 2, Tag: testTag, Phase: Type1, Value: []byte("v")}, "wrb/type1", 1 + 2 + 3 + 1 + 1 + 1},
		{WeakMsg{Origin: 3, Tag: testTag, Phase: Type2, Value: []byte("abc")}, "wrb/type2", 1 + 2 + 3 + 1 + 1 + 3},
		{WeakMsg{Origin: 2, Tag: testTag, Phase: Type2, Value: nil}, "wrb/type2", 1 + 2 + 3 + 1 + 1},
	}
	for _, m := range msgs {
		in := m.p
		if in.Kind() != m.kind {
			t.Errorf("%+v: kind %q, want %q", in, in.Kind(), m.kind)
		}
		b, err := c.Encode(in)
		if err != nil {
			t.Fatalf("encode %s: %v", in.Kind(), err)
		}
		if len(b) != m.size || in.Size()+1 != m.size {
			t.Errorf("%s: encoded %d bytes, Size()+code %d, want %d", in.Kind(), len(b), in.Size()+1, m.size)
		}
		out, err := c.Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", in.Kind(), err)
		}
		if fmt.Sprintf("%T %v", out, out) != fmt.Sprintf("%T %v", in, in) {
			t.Errorf("%s: decoded %+v, want %+v", in.Kind(), out, in)
		}
	}
}

func BenchmarkRBBroadcast(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tf := (n - 1) / 3
			for i := 0; i < b.N; i++ {
				accepted := 0
				nw := sim.NewNetwork(n, tf, int64(i))
				for p := 1; p <= n; p++ {
					id := sim.ProcID(p)
					eng := New(id, func(sim.Context, Accept) { accepted++ })
					var onInit func(sim.Context)
					if id == 1 {
						onInit = func(ctx sim.Context) { eng.Broadcast(ctx, testTag, []byte("v")) }
					}
					node := testutil.NewNode(id, onInit, func(ctx sim.Context, m sim.Message) {
						eng.Handle(ctx, m)
					})
					if err := nw.Register(node); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := nw.Run(10_000_000); err != nil {
					b.Fatal(err)
				}
				if accepted != n {
					b.Fatalf("accepted = %d, want %d", accepted, n)
				}
			}
		})
	}
}
