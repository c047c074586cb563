package adversary_test

import (
	"testing"

	"svssba/internal/aba"
	"svssba/internal/adversary"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
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

func TestRValLiarAltersBroadcastValue(t *testing.T) {
	st := core.NewStack(1, nil)
	adversary.Apply(st, adversary.RValLiar(7))
	fake := testutil.NewCtx(1, 4, 1)
	tag := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRVal, A: 2}
	st.Node.Broadcast(fake, tag, mwsvss.EncodeElem(field.New(100)))
	// The WRB type-1 fan-out carries the corrupted value.
	if len(fake.Sent) != 4 {
		t.Fatalf("sent %d", len(fake.Sent))
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

	oddTag := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRVal, Session: oddID.Session}
	evenTag := proto.Tag{Proto: proto.ProtoMW, Step: mwsvss.StepRVal, Session: evenID.Session}
	if out, keep := b.Bcast(nil, oddTag, mwsvss.EncodeElem(field.New(100))); !keep {
		t.Fatal("odd-session rval dropped")
	} else if v, _ := mwsvss.DecodeElem(out); v != field.New(105) {
		t.Errorf("odd-session rval = %v, want 105", v)
	}
	if out, keep := b.Bcast(nil, evenTag, mwsvss.EncodeElem(field.New(100))); !keep {
		t.Fatal("even-session rval dropped")
	} else if v, _ := mwsvss.DecodeElem(out); v != field.New(100) {
		t.Errorf("even-session rval = %v, want 100", v)
	}
}

func TestCoinBiaserOnlyTouchesCoinSessions(t *testing.T) {
	b := adversary.CoinBiaser(0)
	coinTag := proto.Tag{
		Proto: proto.ProtoMW, Step: mwsvss.StepRVal,
		Session: proto.SessionID{Dealer: 1, Kind: proto.KindCoin, Round: 3},
	}
	appTag := coinTag
	appTag.Session.Kind = proto.KindApp

	if out, keep := b.Bcast(nil, coinTag, mwsvss.EncodeElem(field.New(999))); !keep {
		t.Fatal("coin rval dropped")
	} else if v, _ := mwsvss.DecodeElem(out); v != field.New(0) {
		t.Errorf("coin rval = %v, want 0", v)
	}
	if out, keep := b.Bcast(nil, appTag, mwsvss.EncodeElem(field.New(999))); !keep {
		t.Fatal("app rval dropped")
	} else if v, _ := mwsvss.DecodeElem(out); v != field.New(999) {
		t.Errorf("app rval = %v, want unchanged", v)
	}
}
