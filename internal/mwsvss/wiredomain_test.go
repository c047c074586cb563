package mwsvss

import (
	"math/rand"
	"testing"

	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// TestNonWireIDsRefused: an MW instance id naming a process outside the
// wire's 16 bits gets no instance — not from a direct message, an
// accepted broadcast or a local call — and dealing one is an error.
func TestNonWireIDsRefused(t *testing.T) {
	host := &benchHost{self: 1, d: dmm.New(1, nil)}
	var ctx sim.Context = benchCtx{n: 4, t: 1, rnd: rand.New(rand.NewSource(1))}
	e := New(host, Callbacks{})
	id := proto.MWID{
		Session: proto.SessionID{Dealer: 2, Kind: proto.KindMW},
		Key:     proto.MWKey{Dealer: 2, Moderator: 3 + 1<<16},
	}
	e.OnMessage(ctx, sim.Message{From: 2, To: 1, Payload: Echo{MW: id, Vals: []field.Element{1}}})
	e.OnBroadcast(ctx, 2, tag(id, StepAck, 0), nil)
	e.ReconstructSlot(ctx, id, 0)
	if e.Live() != 0 || e.Instance(id) {
		t.Fatalf("live instances %d, want 0", e.Live())
	}
	id.Key.Dealer = 1
	if err := e.Share(ctx, id, field.New(7)); err == nil {
		t.Fatal("dealing an unpackable instance succeeded")
	}
}
