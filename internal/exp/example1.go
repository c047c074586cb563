package exp

import (
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/poly"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/runner"
	"svssba/internal/sim"
	"svssba/internal/trace"
)

// e7Out carries the Example 1 replay observations.
type e7Out struct {
	out1, out3        mwsvss.Output
	preShun, postShun bool
	ok                bool
}

// E7 — the paper's Example 1 (§3.3), replayed deterministically: two
// nonfaulty processes complete the same MW-SVSS invocation with
// different values; the faulty dealer is detected only afterwards, when
// its reliably-broadcast wrong value finally reaches the moderator.
func E7(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E7 — Example 1 replay (n=4, t=1, dealer=2 faulty, moderator=1)",
		"check", "expected", "observed")

	// One scripted schedule, one trial; the runner still isolates panics.
	sum := scale.run([]runner.Trial{runner.Custom("e7", 7, func() (any, error) {
		var o e7Out
		o.out1, o.out3, o.preShun, o.postShun, o.ok = runExample1()
		return o, nil
	})})

	var o e7Out
	if rs := sum.Group("e7").Results(); len(rs) > 0 {
		if rs[0].Err != nil {
			tb.Add("trial error", "-", rs[0].Err.Error())
			return tb
		}
		o, _ = rs[0].Value.(e7Out)
	}
	tb.Add("share completes among {1,2,3}", true, o.ok)
	tb.Add("process 1 outputs dealt secret 42", "42", o.out1.String())
	tb.Add("process 3 outputs adversary target 10042", "10042", o.out3.String())
	tb.Add("dealer detected before completion", false, o.preShun)
	tb.Add("dealer shunned by process 1 afterwards", true, o.postShun)
	return tb
}

// runExample1 mirrors internal/mwsvss's Example 1 regression test.
func runExample1() (out1, out3 mwsvss.Output, preShun, postShun, ok bool) {
	const (
		n      = 4
		tf     = 1
		dealer = sim.ProcID(2)
		mod    = sim.ProcID(1)
	)
	secret := field.New(42)
	target := field.New(10042)

	sched := sim.NewScriptedScheduler(sim.NewRandomScheduler(7))
	nw := sim.NewNetwork(n, tf, 7, sim.WithScheduler(sched))
	id := proto.MWID{
		Session: proto.SessionID{Dealer: dealer, Kind: proto.KindMW, Round: 1},
		Key:     proto.MWKey{Dealer: dealer, Moderator: mod},
	}

	type procState struct {
		node      *core.Node
		eng       *mwsvss.Engine
		shareDone bool
		out       *mwsvss.Output
	}
	procs := make(map[sim.ProcID]*procState, n)
	for i := 1; i <= n; i++ {
		p := &procState{}
		p.node = core.NewNode(sim.ProcID(i), nil)
		p.eng = core.AttachMWSVSS(p.node, mwsvss.Callbacks{
			ShareComplete: func(_ sim.Context, _ proto.MWID) { p.shareDone = true },
			ReconstructComplete: func(_ sim.Context, _ proto.MWID, _ int, o mwsvss.Output) {
				p.out = &o
			},
		})
		procs[sim.ProcID(i)] = p
		_ = nw.Register(p.node)
	}

	// The faulty dealer records f_l(3) and f_3, then corrupts its
	// target-1/target-2 reconstruction broadcasts collinearly.
	fAt3 := make([]field.Element, n+1)
	var f3Secret field.Element
	procs[dealer].node.SetSendTamper(func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
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
	g := func(l uint64) field.Element {
		return target.Add(f3Secret.Sub(target).Mul(field.New(l)).Mul(inv3))
	}
	procs[dealer].node.SetBcastTamper(func(_ sim.Context, tag proto.Tag, value []byte) ([]byte, bool) {
		if tag.Proto != proto.ProtoMW || tag.Step != mwsvss.StepRValSlab {
			return value, true
		}
		out, _ := mwsvss.MapSlab(value, func(_ int, l sim.ProcID, v field.Element) field.Element {
			if l >= 3 {
				return v
			}
			return g(uint64(l)).Add(two.Mul(fAt3[l])).Mul(inv3)
		})
		return out, true
	})

	involves4 := func(m sim.Message) bool { return m.To == 4 || m.From == 4 }
	sched.SetHold(involves4)

	procs[dealer].node.AddInit(func(ctx sim.Context) {
		_ = procs[dealer].eng.Share(ctx, id, secret)
	})
	procs[mod].node.AddInit(func(ctx sim.Context) {
		_ = procs[mod].eng.SetModeratorSecret(ctx, id, secret)
	})

	trioDone := func() bool {
		return procs[1].shareDone && procs[2].shareDone && procs[3].shareDone
	}
	if _, err := nw.RunUntil(trioDone, 10_000_000); err != nil || !trioDone() {
		return
	}

	sched.SetHold(func(m sim.Message) bool {
		if involves4(m) {
			return true
		}
		p, isRB := m.Payload.(rb.Msg)
		if !isRB || p.Tag.Proto != proto.ProtoMW || p.Tag.Step != mwsvss.StepRValSlab {
			return false
		}
		return (m.To == 3 && p.Origin == 1) || (m.To == 1 && p.Origin == 2)
	})
	for _, i := range []sim.ProcID{1, 2, 3} {
		p := procs[i]
		_ = nw.Inject(i, func(ctx sim.Context) { p.eng.Reconstruct(ctx, id) })
	}
	bothOut := func() bool { return procs[1].out != nil && procs[3].out != nil }
	if _, err := nw.RunUntil(bothOut, 10_000_000); err != nil || !bothOut() {
		return
	}
	out1, out3 = *procs[1].out, *procs[3].out
	preShun = procs[1].node.DMM().IsFaulty(dealer)

	sched.SetHold(nil)
	if _, err := nw.Run(20_000_000); err != nil {
		return
	}
	postShun = procs[1].node.DMM().IsFaulty(dealer)
	ok = true
	return
}
