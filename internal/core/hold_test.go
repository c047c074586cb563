package core

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// issue is a direct payload that makes the receiving test node issue K
// logical broadcasts within the delivery's burst.
type issue struct{ K int }

func (issue) Kind() string { return "test/issue" }
func (issue) Size() int    { return 8 }

// holdNode returns wire-v2 node 1 of n = 4 whose issue handler
// broadcasts ProtoCoin items numbered from 0 in issue order.
func holdNode() *Node {
	nd := NewNode(1, nil)
	next := uint32(0)
	nd.HandleDirect("test/issue", func(ctx sim.Context, m sim.Message) {
		for range m.Payload.(issue).K {
			nd.Broadcast(ctx, proto.Tag{Proto: proto.ProtoCoin, Step: 1, A: next}, bytes.Repeat([]byte{byte(next)}, 16))
			next++
		}
	})
	return nd
}

// type1s returns the RB type 1s in sent addressed to process 2, packs
// unpacked.
func type1s(sent []sim.Message) []rb.WeakMsg {
	var out []rb.WeakMsg
	for _, m := range sent {
		if m.To != 2 {
			continue
		}
		items := []sim.Payload{m.Payload}
		if pk, ok := m.Payload.(proto.Pack); ok {
			items = pk.Items
		}
		for _, p := range items {
			if w, ok := p.(rb.WeakMsg); ok && w.Phase == rb.Type1 {
				out = append(out, w)
			}
		}
	}
	return out
}

// bundleItems decodes the A numbers of the items of w, a bundle type 1.
func bundleItems(t *testing.T, w rb.WeakMsg) []uint32 {
	t.Helper()
	items, err := proto.DecodeBundle(nil, w.Value)
	if err != nil {
		t.Fatal(err)
	}
	var as []uint32
	for _, it := range items {
		as = append(as, it.Tag.A)
	}
	return as
}

// acceptOwn runs the RB instance of w, one of nd's own bundles, to its
// accept at nd: its type 1 comes back, and type 2s and type 3s for its
// digest arrive from processes 1–3. It returns what the burst of the
// accepting delivery sent.
func acceptOwn(t *testing.T, nd *Node, ctx *testutil.Ctx, w rb.WeakMsg) []sim.Message {
	t.Helper()
	accepted := 0
	nd.SetAcceptTrace(func(origin sim.ProcID, _ proto.Tag, _ int) {
		if origin == 1 {
			accepted++
		}
	})
	defer nd.SetAcceptTrace(nil)
	sum := sha256.Sum256(w.Value)
	nd.Deliver(ctx, sim.Message{From: 1, To: 1, Payload: w})
	for from := sim.ProcID(1); from <= 3; from++ {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.WeakMsg{Origin: 1, Tag: w.Tag, Phase: rb.Type2, Value: sum[:]}})
	}
	for from := sim.ProcID(1); from <= 2; from++ {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 1, Tag: w.Tag, Value: sum[:]}})
	}
	ctx.Drain()
	if accepted != 0 {
		t.Fatalf("own bundle %d accepted before n−t type 3s", w.Tag.A)
	}
	nd.Deliver(ctx, sim.Message{From: 3, To: 1, Payload: rb.Msg{Origin: 1, Tag: w.Tag, Value: sum[:]}})
	if accepted == 0 {
		t.Fatalf("own bundle %d not accepted on n−t type 3s", w.Tag.A)
	}
	return ctx.Drain()
}

// TestOpenBundlesHoldTheNext: a node with maxOpenBundles of its own
// bundles unaccepted cuts no further bundle and sends no lone broadcast;
// the burst of its own accept flushes everything held, in issue order,
// as one bundle.
func TestOpenBundlesHoldTheNext(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := holdNode()
	var open []rb.WeakMsg
	for range maxOpenBundles {
		nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: issue{K: 3}})
		ws := type1s(ctx.Drain())
		if len(ws) != 1 || ws[0].Tag.Proto != proto.ProtoBundle {
			t.Fatalf("burst of 3 broadcasts sent %d type 1s, want one bundle", len(ws))
		}
		open = append(open, ws[0])
	}
	held := 0
	for _, k := range []int{4, 1, 2} {
		nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: issue{K: k}})
		held += k
		if ws := type1s(ctx.Drain()); len(ws) != 0 {
			t.Fatalf("%d bundles open: sent %d type 1s, want none", maxOpenBundles, len(ws))
		}
	}
	if len(nd.bunTags) != held {
		t.Fatalf("holding %d broadcasts, want %d", len(nd.bunTags), held)
	}

	ws := type1s(acceptOwn(t, nd, ctx, open[0]))
	if len(ws) != 1 || ws[0].Tag.Proto != proto.ProtoBundle {
		t.Fatalf("accept burst sent %d type 1s, want one bundle", len(ws))
	}
	got := bundleItems(t, ws[0])
	first := uint32(3 * maxOpenBundles)
	for i, a := range got {
		if a != first+uint32(i) {
			t.Fatalf("flushed items %v, want %d..%d in issue order", got, first, first+uint32(held)-1)
		}
	}
	if len(got) != held || len(nd.bunTags) != 0 || nd.bunOpen != maxOpenBundles {
		t.Fatalf("flushed %d of %d held, %d left, %d open", len(got), held, len(nd.bunTags), nd.bunOpen)
	}

	// The flush took the freed slot: the next burst is held again.
	nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: issue{K: 1}})
	if ws := type1s(ctx.Drain()); len(ws) != 0 || len(nd.bunTags) != 1 {
		t.Fatalf("after the flush: sent %d type 1s, holding %d; want 0 and 1", len(ws), len(nd.bunTags))
	}
}

// TestLoneBroadcastOpensNothing: a burst with one broadcast sends it in
// its v1 shape and leaves every slot free.
func TestLoneBroadcastOpensNothing(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := holdNode()
	for i := range maxOpenBundles + 1 {
		nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: issue{K: 1}})
		ws := type1s(ctx.Drain())
		if len(ws) != 1 || ws[0].Tag.Proto != proto.ProtoCoin || ws[0].Tag.A != uint32(i) {
			t.Fatalf("lone broadcast %d: sent %+v, want its own ProtoCoin type 1", i, ws)
		}
	}
	if nd.bunOpen != 0 {
		t.Fatalf("%d bundles open after lone broadcasts", nd.bunOpen)
	}
}

// TestRetireDropsHeldBroadcasts: Retire drops what an open bundle held,
// unsent, and the retired node sends nothing after — even for the
// accept that would have flushed it. Dropping is harmless (burst.go):
// a stack retires only after its agreement halted.
func TestRetireDropsHeldBroadcasts(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := holdNode()
	var open []rb.WeakMsg
	for range maxOpenBundles {
		nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: issue{K: 2}})
		open = append(open, type1s(ctx.Drain())...)
	}
	nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: issue{K: 5}})
	if len(nd.bunTags) != 5 {
		t.Fatalf("holding %d broadcasts, want 5", len(nd.bunTags))
	}
	ctx.Drain()
	nd.Retire()
	if len(nd.bunTags) != 0 || len(nd.bunVals) != 0 || nd.bunOpen != 0 {
		t.Fatalf("after Retire: %d tags, %d values held, %d open", len(nd.bunTags), len(nd.bunVals), nd.bunOpen)
	}
	for _, v := range nd.bunVals[:cap(nd.bunVals)] {
		if v != nil {
			t.Fatal("Retire kept a reference to a held value")
		}
	}
	sum := sha256.Sum256(open[0].Value)
	for from := sim.ProcID(1); from <= 3; from++ {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 1, Tag: open[0].Tag, Value: sum[:]}})
	}
	if len(ctx.Sent) != 0 {
		t.Fatalf("retired node sent %d messages", len(ctx.Sent))
	}
}

// TestHeldBundlesDrainPastWithheldEchoes is a Byzantine cell: one n = 4
// coin round under wire v2 in which process 4 (t = 1) runs the honest
// stack but withholds every type 2 and type 3 for process 1's bundles.
// Process 1's bundles are still accepted, from the n−t honest echoes:
// the rule engages, every broadcast it issued reaches process 2, and at
// quiescence no process holds anything or has a bundle open. What
// process 1 holds never exceeds what its stack issued.
func TestHeldBundlesDrainPastWithheldEchoes(t *testing.T) {
	const n, tf, origin, withholder = 4, 1, 1, 4
	stacks := make([]*Stack, n+1)
	maxHeld := 0
	nw := sim.NewNetwork(n, tf, 1, sim.WithDeliverHook(func(sim.Message) {
		maxHeld = max(maxHeld, len(stacks[origin].Node.bunTags))
	}))
	var (
		output           [n + 1]bool
		issued, accepted int // process 1's broadcasts, and those process 2 accepted
		withheld         int
	)
	for id := sim.ProcID(1); id <= n; id++ {
		st := NewStack(id, nil)
		st.OnCoin(func(sim.Context, uint64, int) { output[id] = true })
		switch id {
		case origin:
			st.Node.SetBcastTamper(func(_ sim.Context, _ proto.Tag, v []byte) ([]byte, bool) {
				issued++
				return v, true
			})
		case 2:
			st.Node.SetAcceptTrace(func(o sim.ProcID, _ proto.Tag, _ int) {
				if o == origin {
					accepted++
				}
			})
		case withholder:
			st.Node.SetSendTamper(func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
				var tag proto.Tag
				switch v := p.(type) {
				case rb.WeakMsg:
					if v.Phase != rb.Type2 || v.Origin != origin {
						return p, true
					}
					tag = v.Tag
				case rb.Msg:
					if v.Origin != origin {
						return p, true
					}
					tag = v.Tag
				default:
					return p, true
				}
				if tag.Proto != proto.ProtoBundle {
					return p, true
				}
				withheld++
				return nil, false
			})
		}
		stacks[id] = st
		if err := nw.Register(st.Node); err != nil {
			t.Fatal(err)
		}
	}
	for id := sim.ProcID(1); id <= n; id++ {
		if err := nw.Inject(id, func(ctx sim.Context) { stacks[id].Coin.Start(ctx, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	for id := sim.ProcID(1); id < withholder; id++ {
		if !output[id] {
			t.Errorf("honest process %d produced no coin output", id)
		}
	}
	for id := sim.ProcID(1); id <= n; id++ {
		nd := stacks[id].Node
		if len(nd.bunTags) != 0 || nd.bunOpen != 0 {
			t.Errorf("process %d at quiescence: %d broadcasts held, %d bundles open", id, len(nd.bunTags), nd.bunOpen)
		}
	}
	cut := stacks[origin].Node.bunSeq
	if cut == 0 || withheld == 0 || maxHeld == 0 {
		t.Fatalf("cell did not exercise the rule: %d bundles cut, %d echoes withheld, at most %d held", cut, withheld, maxHeld)
	}
	if accepted != issued || maxHeld > issued {
		t.Fatalf("process 1 issued %d broadcasts, process 2 accepted %d; at most %d held", issued, accepted, maxHeld)
	}
	t.Logf("%d broadcasts in %d bundles, %d echoes withheld, at most %d held", issued, cut, withheld, maxHeld)
}
