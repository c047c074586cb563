package rb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// The WRB phase (Appendix A.1) on its own. A WRB acceptance has no
// callback of its own: it shows as the type 3 the engine sends for the
// accepted value (A.2 step 2).

// weakRun runs one broadcast with every type 3 withheld from the
// network, so no process amplifies or RB-accepts and each type 3 an
// honest engine sends marks its WRB acceptance. It returns, per honest
// process, the values it WRB-accepted.
func weakRun(t *testing.T, n, tf int, seed int64, dealer sim.ProcID, value string,
	faulty map[sim.ProcID]func(id sim.ProcID) sim.Handler) (map[sim.ProcID][]string, []sim.ProcID) {
	t.Helper()
	nw := sim.NewNetwork(n, tf, seed)
	accepted := make(map[sim.ProcID][]string)
	var honest []sim.ProcID
	for p := 1; p <= n; p++ {
		id := sim.ProcID(p)
		if mk, ok := faulty[id]; ok {
			if err := nw.Register(mk(id)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		honest = append(honest, id)
		eng := New(id, nil)
		wrap := func(ctx sim.Context) sim.Context {
			return withheldType3{ctx, func(v []byte) { accepted[id] = append(accepted[id], string(v)) }}
		}
		var init func(sim.Context)
		if id == dealer {
			init = func(ctx sim.Context) { eng.Broadcast(wrap(ctx), testTag, []byte(value)) }
		}
		node := testutil.NewNode(id, init, func(ctx sim.Context, m sim.Message) { eng.Handle(wrap(ctx), m) })
		if err := nw.Register(node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return accepted, honest
}

// withheldType3 drops every type 3 its process sends, reporting the
// value of each fan-out once (at its send to process 1).
type withheldType3 struct {
	sim.Context
	sent func(v []byte)
}

func (c withheldType3) Send(to sim.ProcID, p sim.Payload) {
	if m, ok := p.(Msg); ok {
		if to == 1 {
			c.sent(m.Value)
		}
		return
	}
	c.Context.Send(to, p)
}

func TestWeakHonestDealerAllAccept(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		t.Run(fmt.Sprintf("n%d_t%d", cfg.n, cfg.t), func(t *testing.T) {
			accepted, honest := weakRun(t, cfg.n, cfg.t, 1, 1, "v", nil)
			for _, id := range honest {
				if got := accepted[id]; len(got) != 1 || got[0] != "v" {
					t.Errorf("process %d WRB-accepted %v, want [v]", id, got)
				}
			}
		})
	}
}

func TestWeakHonestDealerWithSilentFaults(t *testing.T) {
	// t processes silent: the remaining n−t honest ones must still accept.
	faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
		3: func(id sim.ProcID) sim.Handler { return testutil.Silent(id) },
	}
	accepted, honest := weakRun(t, 4, 1, 2, 1, "v", faulty)
	for _, id := range honest {
		if got := accepted[id]; len(got) != 1 || got[0] != "v" {
			t.Errorf("process %d WRB-accepted %v, want [v]", id, got)
		}
	}
}

// distinct returns the distinct values the honest processes accepted
// and whether any of them accepted more than once.
func distinct(accepted map[sim.ProcID][]string, honest []sim.ProcID) (map[string]bool, bool) {
	vals, multi := make(map[string]bool), false
	for _, id := range honest {
		multi = multi || len(accepted[id]) > 1
		for _, v := range accepted[id] {
			vals[v] = true
		}
	}
	return vals, multi
}

func TestWeakEquivocatingDealerNeverDisagrees(t *testing.T) {
	// Correctness: whatever the schedule, honest processes never accept
	// two different values (they may accept nothing).
	for seed := int64(0); seed < 50; seed++ {
		faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
			1: func(id sim.ProcID) sim.Handler { return &equivocator{id: id} },
		}
		vals, multi := distinct(weakRun(t, 4, 1, seed, 0, "", faulty))
		if len(vals) > 1 {
			t.Fatalf("seed %d: honest processes WRB-accepted distinct values %v", seed, vals)
		}
		if multi {
			t.Fatalf("seed %d: a process WRB-accepted twice", seed)
		}
	}
}

// doubleVoter echoes two different type-2 values for every type 1 it
// sees.
type doubleVoter struct{ id sim.ProcID }

func (d *doubleVoter) ID() sim.ProcID   { return d.id }
func (d *doubleVoter) Init(sim.Context) {}

func (d *doubleVoter) Deliver(ctx sim.Context, m sim.Message) {
	msg, ok := m.Payload.(WeakMsg)
	if !ok || msg.Phase != Type1 {
		return
	}
	for p := 1; p <= ctx.N(); p++ {
		ctx.Send(sim.ProcID(p), WeakMsg{Origin: msg.Origin, Tag: msg.Tag, Phase: Type2, Value: []byte("x")})
		ctx.Send(sim.ProcID(p), WeakMsg{Origin: msg.Origin, Tag: msg.Tag, Phase: Type2, Value: []byte("y")})
	}
}

func TestWeakDoubleVoterCannotForgeAcceptance(t *testing.T) {
	// An honest dealer broadcasts "v"; a faulty process votes for other
	// values twice. Honest processes must still accept only "v".
	for seed := int64(0); seed < 20; seed++ {
		faulty := map[sim.ProcID]func(sim.ProcID) sim.Handler{
			4: func(id sim.ProcID) sim.Handler { return &doubleVoter{id: id} },
		}
		if vals, _ := distinct(weakRun(t, 4, 1, seed, 1, "v", faulty)); len(vals) != 1 || !vals["v"] {
			t.Fatalf("seed %d: WRB-accepted %v, want only v", seed, vals)
		}
	}
}

// type3s returns the values of the type 3 fan-outs in sent.
func type3s(sent []sim.Message) []string {
	var out []string
	for _, m := range sent {
		if e, ok := m.Payload.(Msg); ok && m.To == 1 {
			out = append(out, fmt.Sprintf("%v:%s", e.Tag.Step, e.Value))
		}
	}
	return out
}

func TestUnitDuplicateType2CountedOnce(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	type2 := func(from sim.ProcID) {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: WeakMsg{Origin: 3, Tag: testTag, Phase: Type2, Value: []byte("v")}})
	}
	// Three type 2s from the same sender count once: acceptance needs
	// n−t = 3 distinct senders.
	for i := 0; i < 3; i++ {
		type2(2)
	}
	if len(ctx.Sent) != 0 {
		t.Fatal("WRB-accepted on duplicate votes of one sender")
	}
	type2(3)
	type2(4)
	if got := type3s(ctx.Sent); fmt.Sprint(got) != "[1:v]" {
		t.Fatalf("type 3s %v, want one for v", got)
	}
}

func TestUnitType1FromNonDealerIgnored(t *testing.T) {
	// Under a bundle tag too: a bundle body from a non-origin is a push,
	// never a reason to echo.
	bundle := proto.Tag{Proto: proto.ProtoBundle, A: 1}
	for _, tc := range []struct {
		tag   proto.Tag
		value []byte
	}{{testTag, []byte("v")}, {bundle, []byte("v")}, {bundle, make([]byte, 200)}} {
		ctx := testutil.NewCtx(1, 4, 1)
		e := New(1, nil)
		// Type 1 claiming origin 3 but sent by 2: no echo may be produced.
		e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: WeakMsg{Origin: 3, Tag: tc.tag, Phase: Type1, Value: tc.value}})
		if len(ctx.Sent) != 0 {
			t.Fatalf("tag %v: echoed a spoofed type 1: %d sends", tc.tag, len(ctx.Sent))
		}
		// Genuine type 1 from the dealer: echo to all n processes.
		e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: tc.tag, Phase: Type1, Value: tc.value}})
		if len(ctx.Sent) != 4 {
			t.Fatalf("tag %v: sent %d echoes, want 4", tc.tag, len(ctx.Sent))
		}
	}
}

func TestUnitSecondType1DoesNotReEcho(t *testing.T) {
	for _, tag := range []proto.Tag{testTag, bundleTag} {
		ctx := testutil.NewCtx(1, 4, 1)
		e := New(1, nil)
		e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: tag, Phase: Type1, Value: body('v')}})
		ctx.Drain()
		e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: tag, Phase: Type1, Value: body('w')}})
		if len(ctx.Sent) != 0 {
			t.Fatalf("tag %v: echoed a second type 1 for the same instance", tag)
		}
	}
}

func TestUnitInstancesAreIndependent(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	tag2 := testTag
	tag2.Step = 2
	type2 := func(from sim.ProcID, tag proto.Tag) {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: WeakMsg{Origin: 3, Tag: tag, Phase: Type2, Value: []byte("v")}})
	}
	type2(2, testTag)
	type2(3, testTag)
	type2(4, tag2)
	// The vote under tag2 must not have counted toward testTag's
	// instance, and the third under testTag accepts only testTag.
	if len(ctx.Sent) != 0 {
		t.Fatalf("WRB-accepted on votes split across two instances: %v", type3s(ctx.Sent))
	}
	type2(4, testTag)
	if got := type3s(ctx.Sent); fmt.Sprint(got) != "[1:v]" {
		t.Fatalf("type 3s %v, want one for testTag", got)
	}
}

// TestUnitDigestSendersNotedUntilDelivery: under a bundle tag, the
// instance notes which senders' type 2 carried each 32-byte digest —
// first type 2 per sender only, also after its WRB acceptance — and the
// push at delivery goes to exactly the peers not noted under the
// accepted digest. The notes go with the delivery.
func TestUnitDigestSendersNotedUntilDelivery(t *testing.T) {
	ctx := testutil.NewCtx(1, 7, 2)
	e := New(1, nil)
	b := body('v')
	h, other := sha256.Sum256(b), sha256.Sum256(body('w'))
	type2 := func(from sim.ProcID, v []byte) {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type2, Value: v}})
	}
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: b}})
	for _, from := range []sim.ProcID{1, 2, 3, 4, 5} {
		type2(from, h[:])
	}
	if got := type3s(ctx.Drain()); len(got) != 1 {
		t.Fatalf("type 3s %v, want the WRB acceptance's one", got)
	}
	type2(7, h[:]) // after WRB acceptance: still noted
	type2(6, other[:])
	type2(6, h[:]) // a second type 2 from 6: not noted
	for _, from := range []sim.ProcID{2, 3, 4, 5, 6} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: bundleTag, Value: h[:]}})
	}
	var pushed []sim.ProcID
	for _, m := range ctx.Drain() {
		if w, ok := m.Payload.(WeakMsg); ok && w.Phase == Type1 && bytes.Equal(w.Value, b) {
			pushed = append(pushed, m.To)
		}
	}
	if fmt.Sprint(pushed) != "[6]" {
		t.Fatalf("pushed to %v, want [6]", pushed)
	}
	k, _ := proto.PackTag(3, bundleTag)
	id := e.table.Lookup(k)
	type2(6, h[:])
	if slot := e.insts[id].held; slot != 0 || len(e.freeHelds) != 1 {
		t.Fatalf("notes survived delivery: held slot %d, %d free", slot, len(e.freeHelds))
	}
}
