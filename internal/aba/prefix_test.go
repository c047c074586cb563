package aba_test

import (
	"fmt"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/adversary"
	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// acsPrefix is the prefix internal/acs installs: round 1 = 1, round 2 = 0.
var acsPrefix = []uint8{1, 0}

// idealBit is the common coin of the bare-engine clusters below: every
// process derives the same bit for a round.
func idealBit(seed int64, r uint64) int {
	x := uint64(seed)*0x9e3779b97f4a7c15 + r*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int(x & 1)
}

// voter is one bare agreement engine over an ideal common coin that
// records every invocation. A Byzantine voter runs the same engine with
// an adversary behaviour rewriting what it sends.
type voter struct {
	id  sim.ProcID
	eng *aba.Engine

	seed   int64
	starts []uint64 // coin rounds invoked, in call order

	round          uint64 // current round
	decided        bool
	decision       int
	roundAtDecide  uint64
	startsAtDecide int
}

// Start implements aba.CoinPort.
func (v *voter) Start(ctx sim.Context, r uint64) {
	v.starts = append(v.starts, r)
	v.eng.OnCoin(ctx, r, idealBit(v.seed, r))
}

// tamperCtx applies a Byzantine behaviour's send tamper to everything
// the engine sends.
type tamperCtx struct {
	sim.Context
	send core.SendTamper
}

func (c tamperCtx) Send(to sim.ProcID, p sim.Payload) {
	if out, keep := c.send(c.Context, to, p); keep {
		c.Context.Send(to, out)
	}
}

type voteCluster struct {
	nw     *sim.Network
	voters map[sim.ProcID]*voter
}

// newVoteCluster builds n bare engines with the given prefix (nil = a
// real coin every round). inputs gives every process's input; byz maps
// Byzantine processes to their behaviour.
func newVoteCluster(t *testing.T, n, tf int, seed int64, prefix []uint8, inputs map[sim.ProcID]int,
	byz map[sim.ProcID]adversary.Behavior, opts ...sim.NetworkOption) *voteCluster {
	t.Helper()
	c := &voteCluster{
		nw:     sim.NewNetwork(n, tf, seed, opts...),
		voters: make(map[sim.ProcID]*voter, n),
	}
	for i := 1; i <= n; i++ {
		v := &voter{id: sim.ProcID(i), seed: seed}
		v.eng = aba.New(v.id, v, func(_ sim.Context, d int) {
			v.decided, v.decision = true, d
			v.roundAtDecide, v.startsAtDecide = v.round, len(v.starts)
		})
		v.eng.OnRound(func(r uint64) { v.round = r })
		v.eng.SetCoinPrefix(prefix)
		c.voters[v.id] = v
		wrap := func(ctx sim.Context) sim.Context { return ctx }
		if b, ok := byz[v.id]; ok && b.Send != nil {
			wrap = func(ctx sim.Context) sim.Context { return tamperCtx{Context: ctx, send: b.Send} }
		}
		input := inputs[v.id]
		h := testutil.NewNode(v.id,
			func(ctx sim.Context) {
				if err := v.eng.Propose(wrap(ctx), input); err != nil {
					t.Errorf("propose %d: %v", v.id, err)
				}
			},
			func(ctx sim.Context, m sim.Message) { v.eng.OnMessage(wrap(ctx), m) })
		if err := c.nw.Register(h); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	return c
}

func (c *voteCluster) runUntilDecided(t *testing.T, who []sim.ProcID) {
	t.Helper()
	done := func() bool {
		for _, i := range who {
			if !c.voters[i].decided {
				return false
			}
		}
		return true
	}
	if _, err := c.nw.RunUntil(done, 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done() {
		t.Fatal("network quiesced before every honest process decided")
	}
}

// coinAwareVoter is the adversary a known coin invites: in a prefix
// round with coin c it pushes 1−c in every vote and confirmation —
// trying to keep honest processes from confirming {c} alone, the only
// way a round decides — and past the prefix it flips its votes.
func coinAwareVoter(prefix []uint8) adversary.Behavior {
	against := func(r uint64, honest uint8) uint8 {
		if r >= 1 && r <= uint64(len(prefix)) {
			return 1 - prefix[r-1]
		}
		return 1 - honest
	}
	return adversary.Behavior{
		Name: "coin-aware-voter",
		Send: func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			switch v := p.(type) {
			case aba.Vote:
				return aba.Vote{Step: v.Step, Round: v.Round, Value: against(v.Round, v.Value)}, true
			case aba.Conf:
				return aba.Conf{Round: v.Round, Mask: 1 << against(v.Round, v.Mask>>1)}, true
			}
			return p, true
		},
	}
}

// adversarialSchedulers are the delivery orders the unanimity invariant
// is checked under, beyond the default random one.
func adversarialSchedulers(seed int64) map[string]func() sim.Scheduler {
	return map[string]func() sim.Scheduler{
		"random": func() sim.Scheduler { return sim.NewRandomScheduler(seed) },
		"fifo":   func() sim.Scheduler { return sim.NewFIFOScheduler() },
		"heavy-tail": func() sim.Scheduler {
			return sim.NewDelayScheduler(seed, sim.ExpDelay{Mean: 50})
		},
		// Honest process 3 is cut off until nothing else can move: the two
		// other honest processes run the prefix rounds with the Byzantine
		// voter as their third quorum member.
		"starve-3": func() sim.Scheduler {
			return sim.NewPartitionScheduler(sim.NewRandomScheduler(seed), []sim.ProcID{3}, 1<<40)
		},
	}
}

// TestPrefixUnanimityInvariant is obligation (a): with every honest
// input v, no honest process ever decides 1−v — whatever a Byzantine
// voter that knows the prefix coins sends and however the scheduler
// orders it — and every honest process decides v inside the prefix
// without invoking the coin.
func TestPrefixUnanimityInvariant(t *testing.T) {
	honest := ids(1, 3)
	byzantine := map[string]adversary.Behavior{
		"coin-aware":  coinAwareVoter(acsPrefix),
		"flipper":     adversary.VoteFlipper(),
		"equivocator": adversary.VoteEquivocator(),
		"silent":      adversary.Silent(),
	}
	for v := 0; v <= 1; v++ {
		for bname, b := range byzantine {
			for seed := int64(1); seed <= 6; seed++ {
				for sname, mk := range adversarialSchedulers(seed) {
					name := fmt.Sprintf("v%d/%s/%s/seed%d", v, bname, sname, seed)
					inputs := map[sim.ProcID]int{1: v, 2: v, 3: v, 4: 1 - v}
					c := newVoteCluster(t, 4, 1, seed, acsPrefix, inputs,
						map[sim.ProcID]adversary.Behavior{4: b}, sim.WithScheduler(mk()))
					c.runUntilDecided(t, honest)
					wantRound := uint64(1) // the first prefix round whose bit is v
					if v == 0 {
						wantRound = 2
					}
					for _, i := range honest {
						p := c.voters[i]
						if p.decision != v {
							t.Errorf("%s: process %d decided %d with unanimous honest input %d", name, i, p.decision, v)
						}
						if p.roundAtDecide > wantRound {
							t.Errorf("%s: process %d decided in round %d, want by round %d", name, i, p.roundAtDecide, wantRound)
						}
						if p.startsAtDecide != 0 {
							t.Errorf("%s: process %d invoked the coin %v before deciding", name, i, p.starts)
						}
					}
				}
			}
		}
	}
}

// TestPrefixDecidesWithoutCoin: under FIFO delivery a unanimous
// agreement halts on its DECIDEs before the next round's votes can
// complete, so the coin is never invoked at all — the fault-free
// service case.
func TestPrefixDecidesWithoutCoin(t *testing.T) {
	for v := 0; v <= 1; v++ {
		inputs := map[sim.ProcID]int{1: v, 2: v, 3: v, 4: v}
		c := newVoteCluster(t, 4, 1, 9, acsPrefix, inputs, nil, sim.WithScheduler(sim.NewFIFOScheduler()))
		c.runUntilDecided(t, ids(1, 4))
		if _, err := c.nw.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		for _, i := range ids(1, 4) {
			p := c.voters[i]
			if p.decision != v || len(p.starts) != 0 || !p.eng.Halted() {
				t.Errorf("input %d: process %d decided %d, coin calls %v, halted %v; want %d, none, true",
					v, i, p.decision, p.starts, p.eng.Halted(), v)
			}
		}
	}
}

// wastePrefixRule is the worst-case schedule for the (1, 0) prefix on
// inputs {1: 0, 2: 1, 3: 0, 4: 1}. In round 1 each process is shown its
// own camp's value first (the relays that would complete the other
// value's 2t+1 are held until both processes of the camp sent AUX), so
// two AUX(0) and two AUX(1) go out; any n−t of them carry both values,
// every process confirms {0,1} and adopts the coin, 1. Round 2 is then
// unanimous on 1 against coin 0: nobody decides, and round 3 needs the
// real coin.
func wastePrefixRule() sim.HoldRule {
	var auxSent [5]bool
	zeroCamp := func(p sim.ProcID) bool { return p == 1 || p == 3 }
	return func(m sim.Message) bool {
		v, ok := m.Payload.(aba.Vote)
		if !ok || v.Round != 1 {
			return false
		}
		if v.Step == 2 {
			auxSent[m.From] = true
			return false
		}
		switch {
		case zeroCamp(m.From) && zeroCamp(m.To) && v.Value == 1:
			return !(auxSent[1] && auxSent[3])
		case !zeroCamp(m.From) && !zeroCamp(m.To) && v.Value == 0:
			return !(auxSent[2] && auxSent[4])
		}
		return false
	}
}

var splitInputs = map[sim.ProcID]int{1: 0, 2: 1, 3: 0, 4: 1}

// assertRealRoundsFromThree checks one process's coin rounds: the first
// is round 3 and they are consecutive — round r's coin is coin round r,
// each finished before the next is asked for (the →_i order). A process
// may have none: t+1 DECIDEs can reach it before its own round 3 does.
// It reports whether the process had any.
func assertRealRoundsFromThree(t *testing.T, name string, id sim.ProcID, rounds []uint64) bool {
	t.Helper()
	for k, r := range rounds {
		if r != uint64(3+k) {
			t.Errorf("%s: process %d: coin rounds %v, want 3, 4, … in order", name, id, rounds)
			break
		}
	}
	return len(rounds) > 0
}

// TestPrefixSplitInputsReachRealCoin is obligation (b): under the
// worst-case schedule split inputs survive both prefix rounds, the
// first coin invocation of every process is coin.Start(3), and the
// agreement terminates with one decision.
func TestPrefixSplitInputsReachRealCoin(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		name := fmt.Sprintf("seed%d", seed)
		sched := sim.NewScriptedScheduler(sim.NewRandomScheduler(seed))
		sched.SetHold(wastePrefixRule())
		c := newVoteCluster(t, 4, 1, seed, acsPrefix, splitInputs, nil, sim.WithScheduler(sched))
		c.runUntilDecided(t, ids(1, 4))
		flipped := 0
		for _, i := range ids(1, 4) {
			p := c.voters[i]
			if assertRealRoundsFromThree(t, name, i, p.starts) {
				flipped++
			}
			if p.decision != c.voters[1].decision {
				t.Errorf("%s: process %d decided %d, process 1 decided %d", name, i, p.decision, c.voters[1].decision)
			}
			// Inside the prefix only DECIDE amplification can decide.
			if p.roundAtDecide < 3 && p.startsAtDecide != 0 {
				t.Errorf("%s: process %d decided in round %d after coin calls %v", name, i, p.roundAtDecide, p.starts)
			}
		}
		// Amplification needs t+1 DECIDEs, so the first t+1 deciders each
		// decided on a real coin of their own.
		if flipped < 2 {
			t.Errorf("%s: %d processes flipped the real coin, want at least t+1", name, flipped)
		}
	}
}

// TestPrefixRealCoinRoundsOrdered is obligation (c) on the full stack:
// the same worst-case run over the real shunning coin. No process deals
// or flips coin rounds 1 and 2, every process's flips are rounds 3, 4,
// … in order, each complete before the next starts, nobody is shunned,
// and the agreement terminates with one decision.
func TestPrefixRealCoinRoundsOrdered(t *testing.T) {
	sched := sim.NewScriptedScheduler(sim.NewRandomScheduler(31))
	sched.SetHold(wastePrefixRule())
	c := newCluster(t, 4, 1, 31, sim.WithScheduler(sched))
	flips := make(map[sim.ProcID][]uint64)
	dealtRounds := make(map[uint64]bool) // coin rounds any MW sharing completed for
	for _, id := range ids(1, 4) {
		id, p := id, c.procs[id]
		p.stack.ABA.SetCoinPrefix(acsPrefix)
		p.stack.OnCoin(func(_ sim.Context, r uint64, _ int) {
			if r > 3 && !p.stack.Coin.Done(r-1) {
				t.Errorf("process %d: coin %d finished before coin %d", id, r, r-1)
			}
			flips[id] = append(flips[id], r)
		})
		p.stack.SetTraceHooks(&core.TraceHooks{MWShare: func(mid proto.MWID) {
			if mid.Session.Kind == proto.KindCoin {
				dealtRounds[mid.Session.Round] = true
			}
		}})
	}
	c.propose(t, splitInputs)
	c.mustReach(t, "decide", func() bool { return c.allDecided(ids(1, 4)) })
	c.checkAgreementValidity(t, ids(1, 4), splitInputs)
	if dealtRounds[1] || dealtRounds[2] || !dealtRounds[3] {
		t.Errorf("coin rounds dealt: %v, want none below 3 and round 3 present", dealtRounds)
	}
	flipped := 0
	for _, id := range ids(1, 4) {
		if assertRealRoundsFromThree(t, "real coin", id, flips[id]) {
			flipped++
		}
		if len(c.procs[id].shunned) != 0 {
			t.Errorf("process %d shunned %v in an honest run", id, c.procs[id].shunned)
		}
	}
	if flipped == 0 {
		t.Error("agreement terminated without any process flipping the real coin")
	}
}

// TestUnitPrefixRoundTakesKnownCoin pins the mechanism on one engine:
// in a prefix round the CONF quorum sets the coin from the prefix and
// never calls the CoinPort, a coin output reported for a prefix round
// is ignored, and clearing the prefix restores the real coin.
func TestUnitPrefixRoundTakesKnownCoin(t *testing.T) {
	feedRound := func(ctx *testutil.Ctx, eng *aba.Engine, r uint64, v uint8) {
		for _, from := range []sim.ProcID{1, 2, 3} {
			eng.OnMessage(ctx, sim.Message{From: from, To: 1, Payload: aba.Vote{Step: 1, Round: r, Value: v}})
		}
		for _, from := range []sim.ProcID{1, 2, 3} {
			eng.OnMessage(ctx, sim.Message{From: from, To: 1, Payload: aba.Vote{Step: 2, Round: r, Value: v}})
		}
		for _, from := range []sim.ProcID{1, 2, 3} {
			eng.OnMessage(ctx, sim.Message{From: from, To: 1, Payload: aba.Conf{Round: r, Mask: 1 << v}})
		}
	}

	// Input 0 against prefix (1, 0): round 1 passes without deciding,
	// round 2 decides 0, and the CoinPort is never called.
	ctx := testutil.NewCtx(1, 4, 1)
	rec := &startRecorder{}
	eng := aba.New(1, rec, nil)
	eng.SetCoinPrefix(acsPrefix)
	if err := eng.Propose(ctx, 0); err != nil {
		t.Fatal(err)
	}
	eng.OnCoin(ctx, 1, 0) // a flip of prefix round 1 must not override its known coin
	feedRound(ctx, eng, 1, 0)
	if _, ok := eng.Decided(); ok || eng.Round() != 2 {
		t.Fatalf("after round 1: decided=%v round=%d, want undecided in round 2", ok, eng.Round())
	}
	feedRound(ctx, eng, 2, 0)
	if d, ok := eng.Decided(); !ok || d != 0 {
		t.Fatalf("after round 2: decision (%d,%v), want (0,true)", d, ok)
	}
	if len(rec.rounds) != 0 {
		t.Errorf("CoinPort called for %v inside the prefix", rec.rounds)
	}
	feedRound(ctx, eng, 3, 0)
	if fmt.Sprint(rec.rounds) != "[3]" {
		t.Errorf("CoinPort calls = %v, want [3]: round 3 flips coin round 3", rec.rounds)
	}

	// No prefix: round 1 asks the real coin.
	rec = &startRecorder{}
	eng = aba.New(1, rec, nil)
	eng.SetCoinPrefix(acsPrefix)
	eng.SetCoinPrefix(nil)
	if err := eng.Propose(ctx, 0); err != nil {
		t.Fatal(err)
	}
	feedRound(ctx, eng, 1, 0)
	if fmt.Sprint(rec.rounds) != "[1]" {
		t.Errorf("CoinPort calls without a prefix = %v, want [1]", rec.rounds)
	}
}

type startRecorder struct{ rounds []uint64 }

func (s *startRecorder) Start(_ sim.Context, r uint64) { s.rounds = append(s.rounds, r) }
