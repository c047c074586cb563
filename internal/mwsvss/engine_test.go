package mwsvss_test

import (
	"fmt"
	"testing"

	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// inst builds a standalone MW-SVSS instance id.
func inst(dealer, moderator sim.ProcID) proto.MWID {
	return proto.MWID{
		Session: proto.SessionID{Dealer: dealer, Kind: proto.KindMW, Round: 1},
		Key:     proto.MWKey{Dealer: dealer, Moderator: moderator},
	}
}

// proc is one process under test: a core.Node hosting an MW-SVSS engine.
type proc struct {
	id        sim.ProcID
	node      *core.Node
	eng       *mwsvss.Engine
	shareDone map[proto.MWID]bool
	outputs   map[proto.MWID]mwsvss.Output
	shunned   []sim.ProcID
}

func newProc(id sim.ProcID) *proc {
	p := &proc{
		id:        id,
		shareDone: make(map[proto.MWID]bool),
		outputs:   make(map[proto.MWID]mwsvss.Output),
	}
	p.node = core.NewNode(id, func(j sim.ProcID, _ proto.MWID) {
		p.shunned = append(p.shunned, j)
	})
	p.eng = core.AttachMWSVSS(p.node, mwsvss.Callbacks{
		ShareComplete: func(_ sim.Context, id proto.MWID) {
			p.shareDone[id] = true
		},
		ReconstructComplete: func(_ sim.Context, id proto.MWID, _ int, out mwsvss.Output) {
			p.outputs[id] = out
		},
	})
	return p
}

// cluster owns the network and the processes.
type cluster struct {
	nw    *sim.Network
	procs map[sim.ProcID]*proc
	n, t  int
}

func newCluster(t *testing.T, n, tf int, seed int64, opts ...sim.NetworkOption) *cluster {
	t.Helper()
	c := &cluster{
		nw:    sim.NewNetwork(n, tf, seed, opts...),
		procs: make(map[sim.ProcID]*proc, n),
		n:     n,
		t:     tf,
	}
	for i := 1; i <= n; i++ {
		p := newProc(sim.ProcID(i))
		c.procs[p.id] = p
		if err := c.nw.Register(p.node); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	return c
}

func (c *cluster) startShare(t *testing.T, id proto.MWID, secret, modSecret field.Element) {
	t.Helper()
	dealer := c.procs[id.Key.Dealer]
	mod := c.procs[id.Key.Moderator]
	dealer.node.AddInit(func(ctx sim.Context) {
		if err := dealer.eng.Share(ctx, id, secret); err != nil {
			t.Errorf("share: %v", err)
		}
	})
	mod.node.AddInit(func(ctx sim.Context) {
		if err := mod.eng.SetModeratorSecret(ctx, id, modSecret); err != nil {
			t.Errorf("set moderator secret: %v", err)
		}
	})
}

func (c *cluster) allShareDone(id proto.MWID, who []sim.ProcID) bool {
	for _, i := range who {
		if !c.procs[i].shareDone[id] {
			return false
		}
	}
	return true
}

func (c *cluster) allReconDone(id proto.MWID, who []sim.ProcID) bool {
	for _, i := range who {
		if _, ok := c.procs[i].outputs[id]; !ok {
			return false
		}
	}
	return true
}

func (c *cluster) reconstructAll(t *testing.T, id proto.MWID, who []sim.ProcID) {
	t.Helper()
	for _, i := range who {
		p := c.procs[i]
		if err := c.nw.Inject(i, func(ctx sim.Context) {
			p.eng.Reconstruct(ctx, id)
		}); err != nil {
			t.Fatalf("inject reconstruct %d: %v", i, err)
		}
	}
}

func ids(from, to int) []sim.ProcID {
	out := make([]sim.ProcID, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, sim.ProcID(i))
	}
	return out
}

func TestHonestShareReconstruct(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}} {
		t.Run(fmt.Sprintf("n%d_t%d", cfg.n, cfg.t), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				c := newCluster(t, cfg.n, cfg.t, seed)
				id := inst(1, 2)
				secret := field.New(42)
				c.startShare(t, id, secret, secret)
				all := ids(1, cfg.n)
				if _, err := c.nw.RunUntil(func() bool { return c.allShareDone(id, all) }, 5_000_000); err != nil {
					t.Fatalf("seed %d: share: %v", seed, err)
				}
				c.reconstructAll(t, id, all)
				if _, err := c.nw.RunUntil(func() bool { return c.allReconDone(id, all) }, 5_000_000); err != nil {
					t.Fatalf("seed %d: reconstruct: %v", seed, err)
				}
				for _, i := range all {
					out := c.procs[i].outputs[id]
					if out.Bottom || out.Value != secret {
						t.Errorf("seed %d: process %d output %v, want %v", seed, i, out, secret)
					}
					if len(c.procs[i].shunned) != 0 {
						t.Errorf("seed %d: process %d shunned %v in honest run", seed, i, c.procs[i].shunned)
					}
				}
			}
		})
	}
}

func TestModeratorValueMismatchBlocksCompletion(t *testing.T) {
	// Moderated Validity of Termination requires s = s'. With s != s',
	// the (honest) moderator never builds M, so nobody completes S'.
	c := newCluster(t, 4, 1, 3)
	id := inst(1, 2)
	c.startShare(t, id, field.New(42), field.New(43))
	if _, err := c.nw.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 1; i <= 4; i++ {
		if c.procs[sim.ProcID(i)].shareDone[id] {
			t.Errorf("process %d completed share despite s != s'", i)
		}
	}
}

func TestDealerIsNotModeratorRoleErrors(t *testing.T) {
	c := newCluster(t, 4, 1, 4)
	id := inst(1, 2)
	if err := c.nw.Inject(3, func(ctx sim.Context) {
		if err := c.procs[3].eng.Share(ctx, id, field.New(1)); err == nil {
			t.Error("non-dealer Share accepted")
		}
		if err := c.procs[3].eng.SetModeratorSecret(ctx, id, field.New(1)); err == nil {
			t.Error("non-moderator SetModeratorSecret accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleShareRejected(t *testing.T) {
	c := newCluster(t, 4, 1, 5)
	id := inst(1, 2)
	if err := c.nw.Inject(1, func(ctx sim.Context) {
		if err := c.procs[1].eng.Share(ctx, id, field.New(1)); err != nil {
			t.Errorf("first share: %v", err)
		}
		if err := c.procs[1].eng.Share(ctx, id, field.New(2)); err == nil {
			t.Error("second share accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructBeforeShareCompletesIsBuffered(t *testing.T) {
	c := newCluster(t, 4, 1, 6)
	id := inst(1, 2)
	secret := field.New(7)
	c.startShare(t, id, secret, secret)
	// Ask for reconstruction immediately; it must begin only after S'
	// completes and still produce the right output.
	all := ids(1, 4)
	c.reconstructAll(t, id, all)
	if _, err := c.nw.RunUntil(func() bool { return c.allReconDone(id, all) }, 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, i := range all {
		if out := c.procs[i].outputs[id]; out.Bottom || out.Value != secret {
			t.Errorf("process %d output %v, want %v", i, out, secret)
		}
	}
}

// rvalCorruptor adds one to every share of a process's reconstruct-phase
// reveals (the Example 1 attack shape: behave during S', lie during R').
func rvalCorruptor() core.BcastTamper {
	return func(_ sim.Context, tag proto.Tag, value []byte) ([]byte, bool) {
		if tag.Proto != proto.ProtoMW || tag.Step != mwsvss.StepRValSlab {
			return value, true
		}
		out, _ := mwsvss.MapSlab(value, func(_ int, _ sim.ProcID, v field.Element) field.Element {
			return v.Add(field.One)
		})
		return out, true
	}
}

// dealValsCorruptor corrupts the value vectors the dealer sends to the
// given victims during share step 1 (a blunt attack that mostly stalls
// the share phase — used to check nothing unsafe happens).
func dealValsCorruptor(victims map[sim.ProcID]bool) core.SendTamper {
	return func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
		dv, ok := p.(mwsvss.DealVals)
		if !ok || !victims[to] {
			return p, true
		}
		vals := make([]field.Element, len(dv.Vals))
		copy(vals, dv.Vals)
		for i := range vals {
			vals[i] = vals[i].Add(field.New(uint64(i + 3)))
		}
		return mwsvss.DealVals{MW: dv.MW, Vals: vals}, true
	}
}

func TestCorruptDealValsNeverUnsafe(t *testing.T) {
	// The dealer corrupting dealt vectors makes confirmations fail; the
	// share phase must stall (or, if it completes, stay bound) — and no
	// honest process may ever shun another honest process.
	for seed := int64(0); seed < 20; seed++ {
		c := newCluster(t, 4, 1, seed)
		id := inst(1, 2)
		secret := field.New(42)
		c.procs[1].node.SetSendTamper(dealValsCorruptor(map[sim.ProcID]bool{3: true, 4: true}))
		c.startShare(t, id, secret, secret)
		if _, err := c.nw.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, i := range ids(2, 4) {
			for _, j := range c.procs[i].shunned {
				if j != 1 {
					t.Fatalf("seed %d: honest %d shunned honest %d", seed, i, j)
				}
			}
		}
	}
}

// TestWeakBindingUnderFaultyDealer checks the Weak and Moderated Binding
// property (paper §2.2, property 3'): across schedules, for every run in
// which honest processes complete R', either all non-⊥ outputs agree on a
// single value r (with r = s' for the honest moderator when any non-⊥
// output exists), or some honest process shuns a newly detected faulty
// process.
func TestWeakBindingUnderFaultyDealer(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		c := newCluster(t, 4, 1, seed)
		id := inst(1, 2)
		secret := field.New(42)
		// Dealer behaves during S' but lies in its R' value broadcasts.
		c.procs[1].node.SetBcastTamper(rvalCorruptor())
		c.startShare(t, id, secret, secret)
		honest := ids(2, 4)
		if _, err := c.nw.RunUntil(func() bool { return c.allShareDone(id, honest) }, 5_000_000); err != nil {
			t.Fatalf("seed %d: termination of S': %v", seed, err)
		}
		c.reconstructAll(t, id, ids(1, 4))
		if _, err := c.nw.RunUntil(func() bool { return c.allReconDone(id, honest) }, 5_000_000); err != nil {
			t.Fatalf("seed %d: termination of R': %v", seed, err)
		}
		var nonBottom []field.Element
		shuns := 0
		for _, i := range honest {
			out := c.procs[i].outputs[id]
			if !out.Bottom {
				nonBottom = append(nonBottom, out.Value)
			}
			shuns += len(c.procs[i].shunned)
		}
		agree := true
		for _, v := range nonBottom {
			if v != nonBottom[0] {
				agree = false
			}
		}
		modBound := len(nonBottom) == 0 || nonBottom[0] == secret
		if !(agree && modBound) && shuns == 0 {
			t.Fatalf("seed %d: binding violated without shunning: outputs=%v", seed, nonBottom)
		}
	}
}

// TestValidityUnderFaultyConfirmer: the dealer and moderator are honest;
// a confirmer (process 4) echoes wrong values. Validity demands every
// completed reconstruction outputs s, or a shun occurs.
func TestValidityUnderFaultyConfirmer(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		c := newCluster(t, 4, 1, seed)
		id := inst(1, 2)
		secret := field.New(99)
		// Process 4 corrupts its reconstruct-phase reveals.
		c.procs[4].node.SetBcastTamper(rvalCorruptor())
		c.startShare(t, id, secret, secret)
		honest := ids(1, 3)
		if _, err := c.nw.RunUntil(func() bool { return c.allShareDone(id, honest) }, 5_000_000); err != nil {
			t.Fatalf("seed %d: share: %v", seed, err)
		}
		c.reconstructAll(t, id, ids(1, 4))
		if _, err := c.nw.RunUntil(func() bool { return c.allReconDone(id, honest) }, 5_000_000); err != nil {
			t.Fatalf("seed %d: reconstruct: %v", seed, err)
		}
		// Drain remaining traffic so late (corrupted) broadcasts arrive.
		if _, err := c.nw.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: drain: %v", seed, err)
		}
		shuns := 0
		for _, i := range honest {
			for _, j := range c.procs[i].shunned {
				if j == 4 {
					shuns++
				}
			}
		}
		wrong := 0
		for _, i := range honest {
			out := c.procs[i].outputs[id]
			if out.Bottom || out.Value != secret {
				wrong++
			}
		}
		if wrong > 0 && shuns == 0 {
			t.Fatalf("seed %d: %d wrong outputs and no shun of 4", seed, wrong)
		}
		// The dealer (honest) must never shun an honest process.
		for _, i := range honest {
			for _, j := range c.procs[i].shunned {
				if j != 4 {
					t.Fatalf("seed %d: honest process %d shunned honest %d", seed, i, j)
				}
			}
		}
	}
}

// TestShunPersistsAcrossSessions: after process 4 is detected in session
// one, a later session's messages from 4 are discarded by the detector.
// Detection depends on the schedule, so the test takes the first seed of
// a fixed list at which some honest process detects 4.
func TestShunPersistsAcrossSessions(t *testing.T) {
	honest := ids(1, 3)
	id1 := inst(1, 2)
	run := func(seed int64) (*cluster, int) {
		c := newCluster(t, 4, 1, seed)
		secret := field.New(5)
		c.procs[4].node.SetBcastTamper(rvalCorruptor())
		c.startShare(t, id1, secret, secret)
		if _, err := c.nw.RunUntil(func() bool { return c.allShareDone(id1, honest) }, 5_000_000); err != nil {
			t.Fatalf("seed %d share: %v", seed, err)
		}
		c.reconstructAll(t, id1, append(honest, 4))
		if _, err := c.nw.Run(5_000_000); err != nil {
			t.Fatalf("seed %d reconstruct: %v", seed, err)
		}
		detectors := 0
		for _, i := range honest {
			if c.procs[i].node.DMM().IsFaulty(4) {
				detectors++
			}
		}
		return c, detectors
	}
	var c *cluster
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		var detectors int
		if c, detectors = run(seed); detectors > 0 {
			t.Logf("seed %d: %d detectors", seed, detectors)
			break
		}
		c = nil
	}
	if c == nil {
		t.Fatal("no detector at any listed seed")
	}
	for _, i := range honest {
		if c.procs[i].node.DMM().IsFaulty(4) && len(c.procs[i].shunned) == 0 {
			t.Errorf("process %d has 4 in D_i but no shun callback fired", i)
		}
	}

	// Session two: 4 behaves honestly in the share phase, but every
	// detector discards its traffic (DMM step 4) — its ack is never
	// recorded and it never enters the detector's L set.
	id2 := id1
	id2.Session.Round = 2
	secret := field.New(6)
	for _, p := range []*proc{c.procs[1], c.procs[2]} {
		if err := c.nw.Inject(p.id, func(ctx sim.Context) {
			if p.id == id2.Key.Dealer {
				if err := p.eng.Share(ctx, id2, secret); err != nil {
					t.Errorf("share: %v", err)
				}
			}
			if p.id == id2.Key.Moderator {
				if err := p.eng.SetModeratorSecret(ctx, id2, secret); err != nil {
					t.Errorf("set moderator secret: %v", err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.nw.RunUntil(func() bool { return c.allShareDone(id2, honest) }, 5_000_000); err != nil {
		t.Fatalf("session two share: %v", err)
	}
	if !c.allShareDone(id2, honest) {
		t.Fatal("session two: the honest processes never completed S'")
	}
	for _, i := range honest {
		p := c.procs[i]
		if !p.node.DMM().IsFaulty(4) {
			continue
		}
		if p.eng.AckedBy(id2, 4) {
			t.Errorf("process %d recorded 4's session-two ack", i)
		}
		l := p.eng.LSnapshot(id2)
		if len(l) == 0 {
			t.Errorf("process %d broadcast no session-two L set", i)
		}
		for _, j := range l {
			if j == 4 {
				t.Errorf("process %d admitted 4 into its session-two L set", i)
			}
		}
	}
}
