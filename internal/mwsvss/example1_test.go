package mwsvss_test

import (
	"testing"

	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/poly"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// TestExample1 reproduces Example 1 of the paper (§3.3) exactly:
//
//	n = 4, t = 1; process 2 is the dealer, process 1 the moderator.
//	In the share protocol S', process 4 is delayed, so processes 1, 2, 3
//	hear only from each other: L_1 = L_2 = L_3 = M = {1,2,3}.
//	In R', process 3 hears the values sent by (faulty) 2 before hearing
//	from 1 or 4; with t+1 = 2, its K sets fill from {2,3}. By choosing
//	its reconstruct-phase values appropriately, 2 makes 3 output an
//	arbitrary field element. Process 1 hears from 3 (and itself) first
//	and outputs the dealt secret — two nonfaulty processes complete the
//	same invocation with different values.
//	Only later, when 2's reliably-broadcast value reaches 1, does 1
//	realize 2 is faulty and add 2 to D_1: the detection comes after both
//	have completed, which is why MW-SVSS only *shuns*.
func TestExample1(t *testing.T) {
	const (
		n      = 4
		tf     = 1
		dealer = sim.ProcID(2)
		mod    = sim.ProcID(1)
	)
	secret := field.New(42)
	target := field.New(10042) // the value 2 steers process 3 toward

	sched := sim.NewScriptedScheduler(sim.NewRandomScheduler(7))
	c := newCluster(t, n, tf, 7, sim.WithScheduler(sched))
	id := proto.MWID{
		Session: proto.SessionID{Dealer: dealer, Kind: proto.KindMW, Round: 1},
		Key:     proto.MWKey{Dealer: dealer, Moderator: mod},
	}

	// The faulty dealer records f_l(3) (from its outgoing DealVals to 3)
	// and f_3 itself (from the DealPoly to 3), then rewrites only its
	// target-1 and target-2 R' broadcasts. The corrupted shares make the
	// values process 3 reconstructs collinear: f̄_l(0) = g(l) for the
	// degree-1 polynomial g through (0, target) and (3, f(3)) — the
	// "collinear" choice in the paper's Example 1. The target-3 entry is
	// sent honestly, so process 3's DEAL_3 expectation about the dealer
	// is satisfied and 3 detects nothing.
	fAt3 := make([]field.Element, n+1) // fAt3[l] = f_l(3)
	var f3Secret field.Element         // f_3(0) = f(3)
	c.procs[dealer].node.SetSendTamper(func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
		switch dv := p.(type) {
		case mwsvss.DealVals:
			if to == 3 {
				for l := 1; l <= n; l++ {
					fAt3[l] = dv.Vals[l-1]
				}
			}
		case mwsvss.DealPoly:
			if to == 3 {
				if f3, err := poly.InterpolateFromShares(dv.Shares, ctx.T()); err == nil {
					f3Secret = f3.Secret()
				}
			}
		}
		return p, true
	})
	inv3 := field.New(3).Inv()
	two := field.New(2)
	// g(l) = target + (f(3) − target)·l/3: degree 1, g(0)=target, g(3)=f(3).
	g := func(l uint64) field.Element {
		return target.Add(f3Secret.Sub(target).Mul(field.New(l)).Mul(inv3))
	}
	c.procs[dealer].node.SetBcastTamper(func(_ sim.Context, tag proto.Tag, value []byte) ([]byte, bool) {
		if tag.Proto != proto.ProtoMW || tag.Step != mwsvss.StepRValSlab {
			return value, true
		}
		out, _ := mwsvss.MapSlab(value, func(_ int, l sim.ProcID, v field.Element) field.Element {
			if l >= 3 {
				return v
			}
			// f̄_l through (2, x_l) and (3, f_l(3)) satisfies
			// f̄_l(0) = 3·x_l − 2·f_l(3); choose x_l so f̄_l(0) = g(l).
			return g(uint64(l)).Add(two.Mul(fAt3[l])).Mul(inv3)
		})
		return out, true
	})

	// Phase A: delay process 4 entirely during the share phase.
	involves4 := func(m sim.Message) bool { return m.To == 4 || m.From == 4 }
	sched.SetHold(involves4)

	c.startShare(t, id, secret, secret)
	trio := []sim.ProcID{1, 2, 3}
	if _, err := c.nw.RunUntil(func() bool { return c.allShareDone(id, trio) }, 5_000_000); err != nil {
		t.Fatalf("share among 1-3: %v", err)
	}

	// Phase B: process 3 must not *accept* origin-1 values and process 1
	// must not *accept* origin-2 values before completing R'. Acceptance
	// of an RB broadcast happens on the n-t-th type-3 echo, so holding
	// the type-3 echoes addressed to the victim suffices — WRB traffic
	// still flows, so both processes keep participating as echoers
	// (exactly the paper's "hears from ... before hearing from ...").
	rvalType3Origin := func(m sim.Message) (sim.ProcID, bool) {
		if p, ok := m.Payload.(rb.Msg); ok && p.Tag.Proto == proto.ProtoMW && p.Tag.Step == mwsvss.StepRValSlab {
			return p.Origin, true
		}
		return 0, false
	}
	sched.SetHold(func(m sim.Message) bool {
		if involves4(m) {
			return true
		}
		origin, ok := rvalType3Origin(m)
		if !ok {
			return false
		}
		return (m.To == 3 && origin == 1) || (m.To == 1 && origin == 2)
	})
	c.reconstructAll(t, id, trio)
	oneAndThree := []sim.ProcID{1, 3}
	if _, err := c.nw.RunUntil(func() bool { return c.allReconDone(id, oneAndThree) }, 5_000_000); err != nil {
		t.Fatalf("reconstruct at 1 and 3: %v", err)
	}
	if !c.allReconDone(id, oneAndThree) {
		for _, i := range []sim.ProcID{1, 2, 3} {
			t.Logf("proc %d: %s", i, c.procs[i].eng.DumpState(id))
			t.Logf("proc %d: parked=%d pendingExp=%d", i, c.procs[i].node.DMM().ParkedCount(), c.procs[i].node.DMM().PendingCount())
		}
		t.Fatal("network quiesced before 1 and 3 completed R' (schedule deadlock)")
	}

	out1 := c.procs[1].outputs[id]
	out3 := c.procs[3].outputs[id]
	if out1.Bottom || out1.Value != secret {
		t.Fatalf("process 1 output %v, want the dealt secret %v", out1, secret)
	}
	if out3.Bottom || out3.Value != target {
		t.Fatalf("process 3 output %v, want the adversary's target %v", out3, target)
	}
	if c.procs[1].node.DMM().IsFaulty(dealer) {
		t.Fatal("process 1 detected the dealer before its broadcast arrived")
	}
	if c.procs[3].node.DMM().IsFaulty(dealer) {
		t.Fatal("process 3 detected the dealer although its own share was honest")
	}

	// Phase C: release everything. Process 2's reliably-broadcast wrong
	// value now reaches process 1, contradicting the DEAL_1 expectation
	// (2, c, i, f_1(2)), so 1 adds 2 to D_1 — after both completed.
	sched.SetHold(nil)
	if _, err := c.nw.Run(10_000_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !c.procs[1].node.DMM().IsFaulty(dealer) {
		t.Fatal("process 1 never shunned the faulty dealer")
	}
	for _, honest := range []sim.ProcID{1, 3, 4} {
		for _, j := range c.procs[honest].shunned {
			if j != dealer {
				t.Errorf("process %d shunned honest process %d", honest, j)
			}
		}
	}
}
