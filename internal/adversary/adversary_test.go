package adversary_test

import (
	"bytes"
	"slices"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/adversary"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// capture runs a stack's tamper chain against a payload directly.
func sendThrough(t *testing.T, st *core.Stack, p sim.Payload, to sim.ProcID) []sim.Message {
	t.Helper()
	ctx := testutil.NewCtx(1, 4, 1)
	nw := sim.NewNetwork(4, 1, 1)
	if err := nw.Register(st.Node); err != nil {
		t.Fatal(err)
	}
	_ = ctx
	// Use the node's Init wrapper to get a tampering context.
	st.Node.AddInit(func(c sim.Context) { c.Send(to, p) })
	fake := testutil.NewCtx(1, 4, 1)
	st.Node.Init(fake)
	return fake.Sent
}

func TestSilentDropsEverything(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.Silent())
	sent := sendThrough(t, st, aba.Vote{Step: 1, Round: 1, Value: 1}, 2)
	if len(sent) != 0 {
		t.Errorf("silent sent %d messages", len(sent))
	}
}

func TestVoteFlipperFlips(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.VoteFlipper())
	sent := sendThrough(t, st, aba.Vote{Step: 1, Round: 1, Value: 1}, 2)
	if len(sent) != 1 {
		t.Fatalf("sent %d", len(sent))
	}
	v, ok := sent[0].Payload.(aba.Vote)
	if !ok || v.Value != 0 {
		t.Errorf("payload %v", sent[0].Payload)
	}
}

func TestVoteEquivocatorSplitsByParity(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.VoteEquivocator())
	even := sendThrough(t, st, aba.Vote{Step: 1, Round: 1, Value: 1}, 2)
	st2 := core.NewStack(1, nil)
	adversary.Apply(st2, adversary.VoteEquivocator())
	odd := sendThrough(t, st2, aba.Vote{Step: 1, Round: 1, Value: 1}, 3)
	if even[0].Payload.(aba.Vote).Value != 0 {
		t.Error("even peer not flipped")
	}
	if odd[0].Payload.(aba.Vote).Value != 1 {
		t.Error("odd peer flipped")
	}
}

func TestEchoLiarOffsetsEchoes(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.EchoLiar(5))
	in := mwsvss.Echo{MW: proto.MWID{}, Vals: []field.Element{field.New(10)}}
	sent := sendThrough(t, st, in, 2)
	got := sent[0].Payload.(mwsvss.Echo)
	if got.Vals[0] != field.New(15) {
		t.Errorf("val = %v, want 15", got.Vals[0])
	}
}

func TestMuteKindsDropsSelected(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.MuteKinds(aba.KindBVal))
	if sent := sendThrough(t, st, aba.Vote{Step: 1, Round: 1, Value: 1}, 2); len(sent) != 0 {
		t.Error("muted kind sent")
	}
	st2 := core.NewStack(1, nil)
	adversary.Apply(st2, adversary.MuteKinds(aba.KindBVal))
	if sent := sendThrough(t, st2, aba.Vote{Step: 2, Round: 1, Value: 1}, 2); len(sent) != 1 {
		t.Error("unmuted kind dropped")
	}
}

func TestBehaviorsCompose(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.VoteFlipper(), adversary.MuteKinds(aba.KindAux))
	// BVAL: flipped, kept. AUX: dropped.
	if sent := sendThrough(t, st, aba.Vote{Step: 1, Round: 1, Value: 0}, 2); len(sent) != 1 ||
		sent[0].Payload.(aba.Vote).Value != 1 {
		t.Error("compose: bval not flipped")
	}
	st2 := core.NewStack(1, nil)
	adversary.Apply(st2, adversary.VoteFlipper(), adversary.MuteKinds(aba.KindAux))
	if sent := sendThrough(t, st2, aba.Vote{Step: 2, Round: 1, Value: 0}, 2); len(sent) != 0 {
		t.Error("compose: aux not dropped")
	}
}

// slab encodes a reveal of the given slots with rows n elements wide.
func slab(slots []int, vals ...uint64) []byte {
	rows := make([]field.Element, len(vals))
	for i, v := range vals {
		rows[i] = field.New(v)
	}
	return mwsvss.EncodeSlab(slots, rows)
}

// wantSlab fails the test unless b is a slab of the given slots whose
// rows, n elements wide, read vals.
func wantSlab(t *testing.T, b []byte, n int, slots []int, vals ...uint64) {
	t.Helper()
	var gotSlots []int
	var got []uint64
	_, ok := mwsvss.MapSlab(b, func(slot int, l sim.ProcID, v field.Element) field.Element {
		if l == 1 {
			gotSlots = append(gotSlots, slot)
		}
		got = append(got, v.Uint64())
		return v
	})
	if !ok || len(got) != n*len(gotSlots) {
		t.Fatalf("not a slab of width %d: %x", n, b)
	}
	if !slices.Equal(gotSlots, slots) {
		t.Fatalf("slots %v, want %v", gotSlots, slots)
	}
	if !slices.Equal(got, vals) {
		t.Fatalf("rows %v, want %v", got, vals)
	}
}

// TestRValLiarAltersBroadcastValue: the liar corrupts every entry of
// every row of a reveal, one slot (a classic instance) or several (the
// pool's and the vector coin's batched reveal), and leaves other
// broadcasts and malformed values alone.
func TestRValLiarAltersBroadcastValue(t *testing.T) {
	for _, c := range []struct {
		slots    []int
		in, want []uint64
	}{
		{[]int{0}, []uint64{100, 101, 102, 103}, []uint64{107, 108, 109, 110}},
		{[]int{2, 5, 9},
			[]uint64{10, 11, 12, 13, 20, 21, 22, 23, 30, 31, 32, 33},
			[]uint64{17, 18, 19, 20, 27, 28, 29, 30, 37, 38, 39, 40}},
	} {
		st := core.NewStack(1, nil)
		adversary.Apply(st, adversary.RValLiar(7))
		fake := testutil.NewCtx(1, 4, 1)
		tag := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRValSlab, A: uint32(c.slots[0])}
		st.Node.Broadcast(fake, tag, slab(c.slots, c.in...))
		// The WRB type-1 fan-out carries the corrupted slab.
		if len(fake.Sent) != 4 {
			t.Fatalf("sent %d", len(fake.Sent))
		}
		for _, m := range fake.Sent {
			w, ok := m.Payload.(rb.WeakMsg)
			if !ok {
				t.Fatalf("payload %T, want rb.WeakMsg", m.Payload)
			}
			wantSlab(t, w.Value, 4, c.slots, c.want...)
		}
	}
	b := adversary.RValLiar(1)
	reveal := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRValSlab}
	junk := []byte{1, 2, 3}
	if out, keep := b.Bcast(nil, reveal, junk); !keep || !bytes.Equal(out, junk) {
		t.Errorf("malformed value rewritten: %x", out)
	}
	ack := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepAck}
	plain := slab([]int{0}, 1, 2, 3, 4)
	if out, _ := b.Bcast(nil, ack, plain); !bytes.Equal(out, plain) {
		t.Errorf("non-reveal broadcast rewritten: %x", out)
	}
}

// sendSeq pushes a sequence of sends through the stack's tamper chain
// and returns everything that actually went out, in order. It sends on
// the node's context outside a delivery burst, so each logical payload
// goes out on its own rather than in a per-destination pack.
func sendSeq(t *testing.T, st *core.Stack, msgs []sim.Message) []sim.Message {
	t.Helper()
	fake := testutil.NewCtx(1, 4, 1)
	c := st.Node.Ctx(fake)
	for _, m := range msgs {
		c.Send(m.To, m.Payload)
	}
	return fake.Sent
}

func TestTargetedDelayStarvesThenBursts(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.TargetedDelay(2, 2))
	vote := func(r uint64) aba.Vote { return aba.Vote{Step: 1, Round: r, Value: 1} }
	out := sendSeq(t, st, []sim.Message{
		{To: 2, Payload: vote(1)}, // held
		{To: 3, Payload: vote(2)}, // passes (1 non-victim send)
		{To: 2, Payload: vote(3)}, // held
		{To: 3, Payload: vote(4)}, // triggers release, then passes
		{To: 2, Payload: vote(5)}, // passes (released)
	})
	var got []uint64
	for _, m := range out {
		got = append(got, m.Payload.(aba.Vote).Round)
	}
	want := []uint64{2, 1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("sent rounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sent rounds %v, want %v", got, want)
		}
	}
	if out[1].To != 2 || out[2].To != 2 {
		t.Errorf("burst not addressed to victim: %v", out)
	}
}

func TestMuteThenBurstReplaysBacklog(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.MuteThenBurst(2))
	vote := func(r uint64) aba.Vote { return aba.Vote{Step: 1, Round: r, Value: 1} }
	out := sendSeq(t, st, []sim.Message{
		{To: 2, Payload: vote(1)}, // muted
		{To: 3, Payload: vote(2)}, // muted
		{To: 4, Payload: vote(3)}, // burst: 1, 2, then 3
		{To: 2, Payload: vote(4)}, // passes
	})
	var got []uint64
	for _, m := range out {
		got = append(got, m.Payload.(aba.Vote).Round)
	}
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("sent rounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sent rounds %v, want %v", got, want)
		}
	}
}

func TestCrossSessionEquivocatorLiesByRoundParity(t *testing.T) {
	b := adversary.CrossSessionEquivocator(5)

	oddID := proto.MWID{Session: proto.SessionID{Dealer: 1, Kind: proto.KindApp, Round: 1}}
	evenID := proto.MWID{Session: proto.SessionID{Dealer: 1, Kind: proto.KindApp, Round: 2}}
	if out, keep := b.Send(nil, 2, mwsvss.Echo{MW: oddID, Vals: []field.Element{field.New(10)}}); !keep ||
		out.(mwsvss.Echo).Vals[0] != field.New(15) {
		t.Errorf("odd-session echo not offset: %v", out)
	}
	if out, keep := b.Send(nil, 2, mwsvss.Echo{MW: evenID, Vals: []field.Element{field.New(10)}}); !keep ||
		out.(mwsvss.Echo).Vals[0] != field.New(10) {
		t.Errorf("even-session echo changed: %v", out)
	}

	oddTag := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRValSlab, Session: oddID.Session}
	evenTag := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRValSlab, Session: evenID.Session}
	if out, keep := b.Bcast(nil, oddTag, slab([]int{0, 1}, 100, 101, 102, 103, 200, 201, 202, 203)); !keep {
		t.Fatal("odd-session reveal dropped")
	} else {
		wantSlab(t, out, 4, []int{0, 1}, 105, 106, 107, 108, 205, 206, 207, 208)
	}
	if out, keep := b.Bcast(nil, evenTag, slab([]int{0}, 100, 101, 102, 103)); !keep {
		t.Fatal("even-session reveal dropped")
	} else {
		wantSlab(t, out, 4, []int{0}, 100, 101, 102, 103)
	}
}

func TestCoinBiaserOnlyTouchesCoinSessions(t *testing.T) {
	b := adversary.CoinBiaser(0)
	coinTag := proto.Tag{
		Proto: proto.ProtoMW, Step: mwsvss.StepRValSlab,
		Session: proto.SessionID{Dealer: 1, Kind: proto.KindCoin, Round: 3},
	}
	appTag := coinTag
	appTag.Session.Kind = proto.KindApp

	if out, keep := b.Bcast(nil, coinTag, slab([]int{3, 4}, 9, 99, 999, 9, 8, 88, 888, 8)); !keep {
		t.Fatal("coin reveal dropped")
	} else {
		wantSlab(t, out, 4, []int{3, 4}, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	if out, keep := b.Bcast(nil, appTag, slab([]int{0}, 999, 998, 997, 996)); !keep {
		t.Fatal("app reveal dropped")
	} else {
		wantSlab(t, out, 4, []int{0}, 999, 998, 997, 996)
	}
}
