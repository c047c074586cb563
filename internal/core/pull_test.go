package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// sentPayloads returns what sent carries, packs unpacked, with each
// payload's destination.
func sentPayloads(sent []sim.Message) (out []sim.Message) {
	for _, m := range sent {
		items := []sim.Payload{m.Payload}
		if pk, ok := m.Payload.(proto.Pack); ok {
			items = pk.Items
		}
		for _, p := range items {
			im := m
			im.Payload = p
			out = append(out, im)
		}
	}
	return out
}

// TestBundleLaggardPulls: node 1 of n = 4 accepts the digest of origin
// 3's bundle without its body. It pulls from the t+1 peers whose type 2
// carried the digest, never from the origin; a served body then runs
// the bundle's items, and no burst of the node sends a type 1.
func TestBundleLaggardPulls(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := NewNode(1, nil)
	var items []uint32
	nd.HandleBroadcast(proto.ProtoRB, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, _ []byte) {
		if origin == 3 {
			items = append(items, tag.A)
		}
	})
	a := bundleAccept(0, 3, 'p')
	if !proto.DigestBody(a.Tag, a.Value) {
		t.Fatalf("a %d-byte bundle body is not echoed by digest", len(a.Value))
	}
	tag := a.Tag
	sum := sha256.Sum256(a.Value)
	for _, from := range []sim.ProcID{2, 3, 4} {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.WeakMsg{Origin: 3, Tag: tag, Phase: rb.Type2, Value: sum[:]}})
	}
	for _, from := range []sim.ProcID{2, 3, 4} {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 3, Tag: tag, Value: sum[:]}})
	}
	var pulled []sim.ProcID
	for _, m := range sentPayloads(ctx.Drain()) {
		if p, ok := m.Payload.(rb.Pull); ok && p.Origin == 3 && p.Tag == tag {
			pulled = append(pulled, m.To)
		}
	}
	if fmt.Sprint(pulled) != "[2 4]" || nd.RB().Pulls() != 2 {
		t.Fatalf("pulled %v (%d counted), want [2 4]", pulled, nd.RB().Pulls())
	}
	nd.Deliver(ctx, sim.Message{From: 2, To: 1, Payload: rb.WeakMsg{Origin: 3, Tag: tag, Phase: rb.Type1, Value: bytes.Clone(a.Value)}})
	if fmt.Sprint(items) != "[0 1 2]" {
		t.Fatalf("items %v ran, want [0 1 2]", items)
	}
	if sent := ctx.Drain(); len(sent) != 0 {
		t.Fatalf("the accepting burst sent %v, want nothing", sent)
	}
	// The origin's late type 1 is echoed by digest; still no type 1.
	nd.Deliver(ctx, sim.Message{From: 3, To: 1, Payload: rb.WeakMsg{Origin: 3, Tag: tag, Phase: rb.Type1, Value: bytes.Clone(a.Value)}})
	for _, m := range sentPayloads(ctx.Drain()) {
		if w, ok := m.Payload.(rb.WeakMsg); !ok || w.Phase != rb.Type2 || !bytes.Equal(w.Value, sum[:]) {
			t.Fatalf("the late type 1 produced %+v, want digest type 2s only", m.Payload)
		}
	}
}

// TestBundleHolderServesNotPushes: node 1 holds origin 3's bundle body
// and accepts it while process 4's type 2 is missing. The accept sends
// no type 1 (core never pushes); 4's pull is served once, and the body
// is released as soon as every peer is covered.
func TestBundleHolderServesNotPushes(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := NewNode(1, nil)
	a := bundleAccept(0, 3, 'h')
	tag, sum := a.Tag, sha256.Sum256(a.Value)
	nd.Deliver(ctx, sim.Message{From: 3, To: 1, Payload: rb.WeakMsg{Origin: 3, Tag: tag, Phase: rb.Type1, Value: bytes.Clone(a.Value)}})
	for _, from := range []sim.ProcID{1, 2, 3} {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.WeakMsg{Origin: 3, Tag: tag, Phase: rb.Type2, Value: sum[:]}})
	}
	for _, from := range []sim.ProcID{2, 3, 4} {
		nd.Deliver(ctx, sim.Message{From: from, To: 1, Payload: rb.Msg{Origin: 3, Tag: tag, Value: sum[:]}})
	}
	for _, m := range sentPayloads(ctx.Drain()) {
		if w, ok := m.Payload.(rb.WeakMsg); ok && w.Phase == rb.Type1 {
			t.Fatalf("the holder sent a type 1 to %d around its accept", m.To)
		}
	}
	if got := nd.RB().Held(); got != 1 {
		t.Fatalf("%d instances hold a body after the accept, want 1", got)
	}
	for range 2 {
		nd.Deliver(ctx, sim.Message{From: 4, To: 1, Payload: rb.Pull{Origin: 3, Tag: tag}})
	}
	sent := sentPayloads(ctx.Drain())
	if len(sent) != 1 || sent[0].To != 4 || !bytes.Equal(sent[0].Payload.(rb.WeakMsg).Value, a.Value) || nd.RB().Served() != 1 {
		t.Fatalf("two pulls from 4 produced %v (%d served), want the body once", sent, nd.RB().Served())
	}
	if got := nd.RB().Held(); got != 0 {
		t.Fatalf("%d instances hold a body once every peer is covered, want 0", got)
	}
}

// pullCell runs one n = 4 coin round of core stacks. tamper, if set,
// is process 4's send tamper. It returns the stacks, whether each
// process produced a coin output, and how many type 1s processes sent
// for origins other than themselves.
func pullCell(t *testing.T, tamper SendTamper) (stacks []*Stack, output []bool, relayed int) {
	t.Helper()
	const n, tf = 4, 1
	stacks, output = make([]*Stack, n+1), make([]bool, n+1)
	nw := sim.NewNetwork(n, tf, 1)
	for id := sim.ProcID(1); id <= n; id++ {
		st := NewStack(id, nil)
		st.OnCoin(func(sim.Context, uint64, int) { output[id] = true })
		st.Node.SetSendTamper(func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if w, ok := p.(rb.WeakMsg); ok && w.Phase == rb.Type1 && w.Origin != id {
				relayed++
			}
			if id == n && tamper != nil {
				return tamper(ctx, to, p)
			}
			return p, true
		})
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
	return stacks, output, relayed
}

// TestBundleSkippedLaggardPulls is a Byzantine cell: process 4 runs the
// honest stack but sends its bundles' type 1 to nobody but process 1.
// The other honest processes accept its bundles' digests without the
// bodies, pull them from process 1, and every honest process outputs.
// Every type 1 a process sent for another origin was a served pull.
func TestBundleSkippedLaggardPulls(t *testing.T) {
	stacks, output, relayed := pullCell(t, func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
		w, ok := p.(rb.WeakMsg)
		skip := ok && w.Phase == rb.Type1 && w.Origin == 4 && w.Tag.Proto == proto.ProtoBundle && to != 1 && to != 4
		return p, !skip
	})
	var pulls, served int64
	for id := 1; id <= 4; id++ {
		if id < 4 && !output[id] {
			t.Errorf("honest process %d produced no coin output", id)
		}
		pulls += stacks[id].Node.RB().Pulls()
		served += stacks[id].Node.RB().Served()
	}
	if pulls == 0 || served == 0 || int64(relayed) != served {
		t.Fatalf("%d pulls, %d served, %d type 1s relayed; want pulls, and every relay served", pulls, served, relayed)
	}
}

// TestMuteEchoerHoldsBodiesUntilRetire: process 4 sends no type 2 at
// all, so no holder sees it covered. Every honest process outputs; the
// holders keep their bodies, pushing none, until Retire, and
// StateCounts then returns to baseline.
func TestMuteEchoerHoldsBodiesUntilRetire(t *testing.T) {
	stacks, output, relayed := pullCell(t, func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
		w, ok := p.(rb.WeakMsg)
		return p, !ok || w.Phase != rb.Type2
	})
	var served int64
	for id := 1; id <= 4; id++ {
		served += stacks[id].Node.RB().Served()
	}
	if int64(relayed) != served {
		t.Fatalf("%d type 1s sent for other origins, %d of them served pulls", relayed, served)
	}
	for id := 1; id < 4; id++ {
		st := stacks[id]
		if !output[id] {
			t.Errorf("honest process %d produced no coin output", id)
		}
		if st.Node.RB().Held() == 0 {
			t.Errorf("process %d holds no body for the mute peer at quiescence", id)
		}
		st.Retire()
		if got := st.StateCounts(); got.Total() != 0 || st.Node.RB().Held() != 0 {
			t.Errorf("process %d after Retire: %+v, %d held, want no live state", id, got, st.Node.RB().Held())
		}
	}
}
