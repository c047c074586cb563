package aba_test

import (
	"fmt"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

type proc struct {
	id       sim.ProcID
	stack    *core.Stack
	decision int
	decided  bool
	shunned  []sim.ProcID
}

type cluster struct {
	nw    *sim.Network
	procs map[sim.ProcID]*proc
	n     int
}

func newCluster(t *testing.T, n, tf int, seed int64, opts ...sim.NetworkOption) *cluster {
	t.Helper()
	c := &cluster{
		nw:    sim.NewNetwork(n, tf, seed, opts...),
		procs: make(map[sim.ProcID]*proc, n),
		n:     n,
	}
	for i := 1; i <= n; i++ {
		p := &proc{id: sim.ProcID(i)}
		p.stack = core.NewStack(p.id, func(j sim.ProcID, _ proto.MWID) {
			p.shunned = append(p.shunned, j)
		})
		p.stack.OnDecide(func(_ sim.Context, v int) {
			p.decided = true
			p.decision = v
		})
		c.procs[p.id] = p
		if err := c.nw.Register(p.stack.Node); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	return c
}

// propose wires inputs via init functions.
func (c *cluster) propose(t *testing.T, inputs map[sim.ProcID]int) {
	t.Helper()
	for id, v := range inputs {
		p := c.procs[id]
		value := v
		p.stack.Node.AddInit(func(ctx sim.Context) {
			if err := p.stack.ABA.Propose(ctx, value); err != nil {
				t.Errorf("propose %d: %v", p.id, err)
			}
		})
	}
}

func (c *cluster) allDecided(who []sim.ProcID) bool {
	for _, i := range who {
		if !c.procs[i].decided {
			return false
		}
	}
	return true
}

func (c *cluster) mustReach(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if _, err := c.nw.RunUntil(cond, 500_000_000); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !cond() {
		t.Fatalf("%s: network quiesced before condition held", what)
	}
}

func ids(from, to int) []sim.ProcID {
	out := make([]sim.ProcID, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, sim.ProcID(i))
	}
	return out
}

// checkAgreementValidity asserts Agreement (all decisions equal) and
// Validity (the decision is some process's input) among who.
func (c *cluster) checkAgreementValidity(t *testing.T, who []sim.ProcID, inputs map[sim.ProcID]int) {
	t.Helper()
	first := c.procs[who[0]].decision
	inputSet := make(map[int]bool)
	for _, v := range inputs {
		inputSet[v] = true
	}
	for _, i := range who {
		if got := c.procs[i].decision; got != first {
			t.Errorf("agreement violated: process %d decided %d, process %d decided %d",
				who[0], first, i, got)
		}
	}
	if !inputSet[first] {
		t.Errorf("validity violated: decision %d not among inputs %v", first, inputs)
	}
}

func TestABAUnanimousInputs(t *testing.T) {
	for _, input := range []int{0, 1} {
		t.Run(fmt.Sprintf("input%d", input), func(t *testing.T) {
			c := newCluster(t, 4, 1, int64(40+input))
			inputs := make(map[sim.ProcID]int)
			for _, i := range ids(1, 4) {
				inputs[i] = input
			}
			c.propose(t, inputs)
			c.mustReach(t, "decide", func() bool { return c.allDecided(ids(1, 4)) })
			c.checkAgreementValidity(t, ids(1, 4), inputs)
			// Unanimous input v must decide v (validity is strict here:
			// only v ever enters bin_values).
			if c.procs[1].decision != input {
				t.Errorf("decision %d, want unanimous input %d", c.procs[1].decision, input)
			}
		})
	}
}

func TestABASplitInputs(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := newCluster(t, 4, 1, seed)
		inputs := map[sim.ProcID]int{1: 0, 2: 1, 3: 0, 4: 1}
		c.propose(t, inputs)
		c.mustReach(t, "decide", func() bool { return c.allDecided(ids(1, 4)) })
		c.checkAgreementValidity(t, ids(1, 4), inputs)
		for _, i := range ids(1, 4) {
			if len(c.procs[i].shunned) != 0 {
				t.Errorf("seed %d: shun in honest run", seed)
			}
		}
	}
}

func TestABAWithCrashFault(t *testing.T) {
	c := newCluster(t, 4, 1, 5)
	c.nw.Crash(4)
	inputs := map[sim.ProcID]int{1: 1, 2: 0, 3: 1}
	c.propose(t, inputs)
	live := ids(1, 3)
	c.mustReach(t, "decide with crash", func() bool { return c.allDecided(live) })
	c.checkAgreementValidity(t, live, inputs)
}

// byzantineVoteFlipper runs the honest stack but flips the value in all
// of its outgoing ABA votes (BVAL/AUX) and lies in CONF.
func flipVotes(p *proc) {
	p.stack.Node.SetSendTamper(func(_ sim.Context, _ sim.ProcID, pay sim.Payload) (sim.Payload, bool) {
		switch v := pay.(type) {
		case aba.Vote:
			return aba.Vote{Step: v.Step, Round: v.Round, Value: 1 - v.Value}, true
		case aba.Conf:
			return aba.Conf{Round: v.Round, Mask: 3 - v.Mask&3}, true
		}
		return pay, true
	})
}

func TestABAWithByzantineVoter(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		c := newCluster(t, 4, 1, seed)
		flipVotes(c.procs[4])
		inputs := map[sim.ProcID]int{1: 1, 2: 1, 3: 0, 4: 0}
		c.propose(t, inputs)
		honest := ids(1, 3)
		c.mustReach(t, "decide with byzantine voter", func() bool { return c.allDecided(honest) })
		c.checkAgreementValidity(t, honest, map[sim.ProcID]int{1: 1, 2: 1, 3: 0})
	}
}

// equivocateVotes sends different BVAL/AUX values to odd and even peers.
func equivocateVotes(p *proc) {
	p.stack.Node.SetSendTamper(func(_ sim.Context, to sim.ProcID, pay sim.Payload) (sim.Payload, bool) {
		if v, ok := pay.(aba.Vote); ok {
			if to%2 == 0 {
				return aba.Vote{Step: v.Step, Round: v.Round, Value: 1 - v.Value}, true
			}
		}
		return pay, true
	})
}

func TestABAWithEquivocatingVoter(t *testing.T) {
	c := newCluster(t, 4, 1, 17)
	equivocateVotes(c.procs[2])
	inputs := map[sim.ProcID]int{1: 0, 2: 1, 3: 1, 4: 0}
	c.propose(t, inputs)
	honest := []sim.ProcID{1, 3, 4}
	c.mustReach(t, "decide with equivocator", func() bool { return c.allDecided(honest) })
	c.checkAgreementValidity(t, honest, map[sim.ProcID]int{1: 0, 3: 1, 4: 0})
}

// TestABARoundsOrderedPerProcess checks the session-ordering property the
// paper's t(n−t) argument requires: each process completes the coin of
// round r before starting round r+1, so coin sessions are →_i ordered.
func TestABARoundsOrderedPerProcess(t *testing.T) {
	c := newCluster(t, 4, 1, 23)
	type ev struct {
		round uint64
		kind  string
	}
	events := make(map[sim.ProcID][]ev)
	for i := 1; i <= 4; i++ {
		id := sim.ProcID(i)
		p := c.procs[id]
		p.stack.OnCoin(func(_ sim.Context, r uint64, _ int) {
			events[id] = append(events[id], ev{round: r, kind: "coin"})
		})
	}
	inputs := map[sim.ProcID]int{1: 0, 2: 1, 3: 0, 4: 1}
	c.propose(t, inputs)
	c.mustReach(t, "decide", func() bool { return c.allDecided(ids(1, 4)) })
	for id, evs := range events {
		last := uint64(0)
		for _, e := range evs {
			if e.round != last+1 {
				t.Errorf("process %d: coin rounds out of order: %v", id, evs)
				break
			}
			last = e.round
		}
	}
}

func TestProposeValidation(t *testing.T) {
	eng := aba.New(1, nil, nil)
	ctx := testutil.NewCtx(1, 4, 1)
	if err := eng.Propose(ctx, 2); err == nil {
		t.Error("non-binary input accepted")
	}
	coinStub := coinStub{}
	eng2 := aba.New(1, coinStub, nil)
	if err := eng2.Propose(ctx, 1); err != nil {
		t.Errorf("propose: %v", err)
	}
	if err := eng2.Propose(ctx, 0); err == nil {
		t.Error("double propose accepted")
	}
}

type coinStub struct{}

func (coinStub) Start(sim.Context, uint64) {}

func TestVoteCodec(t *testing.T) {
	c := core.NewCodec()
	// Frame sizes: kind code, then a vote is step, uvarint round, value
	// and a conf is uvarint round, mask.
	msgs := []struct {
		p    sim.Payload
		size int
	}{
		{aba.Vote{Step: 1, Round: 9, Value: 1}, 1 + 3},
		{aba.Vote{Step: 2, Round: 127, Value: 0}, 1 + 3},
		{aba.Vote{Step: 2, Round: 128, Value: 0}, 1 + 4},
		{aba.Vote{Step: 1, Round: ^uint64(0), Value: 1}, 1 + 12},
		{aba.Conf{Round: 3, Mask: 3}, 1 + 2},
		{aba.Conf{Round: 16384, Mask: 1}, 1 + 4},
		{aba.Decide{Value: 1}, 1 + 1},
	}
	for _, m := range msgs {
		in := m.p
		b, err := c.Encode(in)
		if err != nil {
			t.Fatalf("encode %s: %v", in.Kind(), err)
		}
		if len(b) != m.size || in.Size()+1 != m.size {
			t.Errorf("%+v: encoded %d bytes, Size()+code %d, want %d", in, len(b), in.Size()+1, m.size)
		}
		out, err := c.Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", in.Kind(), err)
		}
		if out != in {
			t.Errorf("round trip: got %+v want %+v", out, in)
		}
	}
}
