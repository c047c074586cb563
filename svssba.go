// Package svssba is a from-scratch Go implementation of
//
//	"An Almost-Surely Terminating Polynomial Protocol for Asynchronous
//	 Byzantine Agreement with Optimal Resilience"
//	Ittai Abraham, Danny Dolev, Joseph Y. Halpern — PODC 2008.
//
// It provides asynchronous binary Byzantine agreement for n > 3t that
// terminates with probability 1 in expected-polynomial time, built on
// the paper's shunning verifiable secret sharing (SVSS), moderated weak
// SVSS (MW-SVSS), the detection-and-message-management (DMM) protocol,
// Bracha reliable broadcast, and a shunning common coin — plus the
// prior-work baselines the paper compares against and a deterministic
// asynchronous network simulator to run everything on.
//
// The top-level API runs whole experiments: configure a cluster
// (process count, inputs, faults, scheduler, protocol), call Run /
// RunCoin / RunSVSS — or RunMany to fan a batch of independent runs
// across CPUs — and inspect the Result. Every run is a deterministic
// function of its Config (seed included). Examples live under
// examples/, the experiment harness in internal/exp, internal/runner,
// bench_test.go and cmd/expsweep.
package svssba

import (
	"fmt"

	"svssba/internal/adversary"
	"svssba/internal/baseline"
	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Protocol selects the agreement protocol to run.
type Protocol string

// Protocols.
const (
	// ProtocolADH is the paper's protocol: SVSS-based shunning common
	// coin + voting (optimal resilience, almost-sure termination,
	// polynomial).
	ProtocolADH Protocol = "adh"
	// ProtocolBenOr is Ben-Or's local-coin protocol (needs n > 5t).
	ProtocolBenOr Protocol = "benor"
	// ProtocolLocalCoin is the voting layer with local coins (optimal
	// resilience, but exponential expected rounds).
	ProtocolLocalCoin Protocol = "localcoin"
	// ProtocolEpsCoin is the voting layer over an ideal common coin that
	// fails forever with probability Eps per round (models the
	// Canetti–Rabin protocol's non-a.s. termination).
	ProtocolEpsCoin Protocol = "epscoin"
)

// FaultKind selects a Byzantine behaviour for a process.
type FaultKind string

// Fault kinds.
const (
	// FaultCrash drops the process entirely (fail-stop at time zero).
	FaultCrash FaultKind = "crash"
	// FaultSilent keeps the process receiving but never sending.
	FaultSilent FaultKind = "silent"
	// FaultVoteFlip inverts all agreement votes.
	FaultVoteFlip FaultKind = "vote-flip"
	// FaultVoteEquivocate sends opposite votes to different peers.
	FaultVoteEquivocate FaultKind = "vote-equivocate"
	// FaultRValLie corrupts MW-SVSS reconstruction broadcasts (the
	// Example 1 attack; provokes shunning).
	FaultRValLie FaultKind = "rval-lie"
	// FaultDealCorrupt corrupts dealt SVSS polynomials.
	FaultDealCorrupt FaultKind = "deal-corrupt"
	// FaultEchoLie corrupts MW-SVSS share-phase echoes.
	FaultEchoLie FaultKind = "echo-lie"
	// FaultMuteBurst buffers the process's first outbound messages, then
	// replays the whole backlog in one burst and behaves normally.
	FaultMuteBurst FaultKind = "mute-burst"
	// FaultTargetedDelay starves processes 1..t+1 of this process's
	// traffic, releasing the backlog in a burst after feeding the rest.
	FaultTargetedDelay FaultKind = "targeted-delay"
	// FaultCrossEquivocate corrupts MW-SVSS echoes and reconstruction
	// broadcasts only in odd-round sessions (cross-session equivocation).
	FaultCrossEquivocate FaultKind = "cross-equivocate"
	// FaultCoinBias rewrites coin-session reconstruction broadcasts,
	// attempting to bias the common coin (and provoking shunning).
	FaultCoinBias FaultKind = "coin-bias"
)

// Fault assigns a behaviour to a process (1-based id).
type Fault struct {
	Proc int
	Kind FaultKind
}

// SchedulerKind selects the asynchrony model.
type SchedulerKind string

// Schedulers.
const (
	// SchedRandom delivers a uniformly random pending message each step.
	SchedRandom SchedulerKind = "random"
	// SchedFIFO delivers in global send order.
	SchedFIFO SchedulerKind = "fifo"
	// SchedDelayUniform assigns uniform random delays in [DelayLo, DelayHi].
	SchedDelayUniform SchedulerKind = "delay-uniform"
	// SchedDelayExp assigns exponential delays (mean DelayMean, cap DelayCap).
	SchedDelayExp SchedulerKind = "delay-exp"
	// SchedPartition holds all traffic across a cut (PartitionCut vs the
	// rest) until virtual time PartitionHealAt, then delivers randomly.
	// The cut heals early if nothing else is deliverable, so delivery
	// stays eventual.
	SchedPartition SchedulerKind = "partition"
)

// Config describes one agreement run.
type Config struct {
	// N is the number of processes; T the resilience bound (defaults to
	// floor((N-1)/3)).
	N int
	T int
	// Seed drives all randomness (schedule, polynomial coefficients,
	// coins); equal seeds give identical runs.
	Seed int64
	// Protocol defaults to ProtocolADH.
	Protocol Protocol
	// Inputs are the binary proposals, one per process (defaults to
	// alternating 0/1).
	Inputs []int
	// Faults assigns Byzantine behaviours. Non-crash behaviours are
	// supported by ProtocolADH only.
	Faults []Fault
	// Scheduler defaults to SchedRandom.
	Scheduler SchedulerKind
	// DelayLo/DelayHi parameterize SchedDelayUniform.
	DelayLo, DelayHi int64
	// DelayMean/DelayCap parameterize SchedDelayExp.
	DelayMean, DelayCap int64
	// PartitionCut lists the process ids isolated by SchedPartition
	// (defaults to the last T processes); PartitionHealAt is the virtual
	// time at which the cut heals (defaults to 2000).
	PartitionCut []int
	// PartitionHealAt is the heal time for SchedPartition.
	PartitionHealAt int64
	// Eps is the per-round failure probability of ProtocolEpsCoin.
	Eps float64
	// MaxSteps bounds the run (defaults to 500M deliveries).
	MaxSteps int
	// Wire selects the wire variant for ProtocolADH: "v1" (default, one
	// message per logical payload) or "v2" (burst coalescing — per-
	// destination packs, ProtoBundle broadcast bundles, within-burst echo
	// dedup; see internal/core/wire2.go). v2 is a declared protocol
	// variant: decisions and coin outcomes match v1 (see the cross-
	// variant equivalence test) but message shapes, schedules and counts
	// differ, so it carries its own parity digest. Baseline protocols
	// ignore Wire.
	Wire string
}

func (c *Config) normalize() error {
	var err error
	if c.T, c.Wire, err = checkSim(c.N, c.T, c.Wire, c.Faults); err != nil {
		return err
	}
	if c.Protocol == "" {
		c.Protocol = ProtocolADH
	}
	switch c.Scheduler {
	case "":
		c.Scheduler = SchedRandom
	case SchedRandom, SchedFIFO, SchedDelayUniform, SchedDelayExp, SchedPartition:
	default:
		return fmt.Errorf("svssba: unknown scheduler %q", c.Scheduler)
	}
	if len(c.Inputs) == 0 {
		c.Inputs = make([]int, c.N)
		for i := range c.Inputs {
			c.Inputs[i] = i % 2
		}
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("svssba: %d inputs for %d processes", len(c.Inputs), c.N)
	}
	for _, in := range c.Inputs {
		if in != 0 && in != 1 {
			return fmt.Errorf("svssba: input %d is not binary", in)
		}
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 500_000_000
	}
	for _, f := range c.Faults {
		if c.Protocol != ProtocolADH && f.Kind != FaultCrash {
			return fmt.Errorf("svssba: %s faults require ProtocolADH", f.Kind)
		}
	}
	return nil
}

func (c *Config) scheduler() sim.Scheduler {
	switch c.Scheduler {
	case SchedFIFO:
		return sim.NewFIFOScheduler()
	case SchedDelayUniform:
		lo, hi := c.DelayLo, c.DelayHi
		if hi == 0 {
			hi = 100
		}
		return sim.NewDelayScheduler(c.Seed+1, sim.UniformDelay{Lo: lo, Hi: hi})
	case SchedDelayExp:
		mean, cap := c.DelayMean, c.DelayCap
		if mean == 0 {
			mean = 50
		}
		if cap == 0 {
			cap = 20 * mean
		}
		return sim.NewDelayScheduler(c.Seed+1, sim.ExpDelay{Mean: mean, Cap: cap})
	case SchedPartition:
		cut := make([]sim.ProcID, 0, len(c.PartitionCut))
		for _, p := range c.PartitionCut {
			cut = append(cut, sim.ProcID(p))
		}
		if len(cut) == 0 {
			for p := c.N - c.T + 1; p <= c.N; p++ {
				cut = append(cut, sim.ProcID(p))
			}
		}
		healAt := c.PartitionHealAt
		if healAt == 0 {
			healAt = 2000
		}
		return sim.NewPartitionScheduler(sim.NewRandomScheduler(c.Seed+1), cut, healAt)
	default:
		return sim.NewRandomScheduler(c.Seed + 1)
	}
}

// behaviorFor maps a fault kind to an adversary behaviour; t sizes the
// victim sets of the targeting behaviours.
func behaviorFor(kind FaultKind, t int) (adversary.Behavior, bool) {
	switch kind {
	case FaultSilent:
		return adversary.Silent(), true
	case FaultVoteFlip:
		return adversary.VoteFlipper(), true
	case FaultVoteEquivocate:
		return adversary.VoteEquivocator(), true
	case FaultRValLie:
		return adversary.RValLiar(1), true
	case FaultDealCorrupt:
		return adversary.DealCorruptor(map[sim.ProcID]bool{1: true, 2: true}), true
	case FaultEchoLie:
		return adversary.EchoLiar(1), true
	case FaultMuteBurst:
		return adversary.MuteThenBurst(32), true
	case FaultTargetedDelay:
		victims := make([]sim.ProcID, 0, t+1)
		for p := 1; p <= t+1; p++ {
			victims = append(victims, sim.ProcID(p))
		}
		return adversary.TargetedDelay(64, victims...), true
	case FaultCrossEquivocate:
		return adversary.CrossSessionEquivocator(1), true
	case FaultCoinBias:
		return adversary.CoinBiaser(0), true
	default:
		return adversary.Behavior{}, false
	}
}

// Shun records one D_i addition: By started shunning Detected.
type Shun struct {
	By       int
	Detected int
}

// Result reports one agreement run.
type Result struct {
	// Decisions maps process id to its decision (honest and faulty).
	Decisions map[int]int
	// AllDecided reports whether every honest process decided.
	AllDecided bool
	// Agreed reports whether all honest decisions coincide.
	Agreed bool
	// Value is the agreed value (meaningful when Agreed).
	Value int
	// MaxRound is the highest voting round any honest process entered.
	MaxRound uint64
	// Steps is the number of message deliveries.
	Steps int
	// VirtualTime is the simulator clock at the end of the run.
	VirtualTime int64
	// Depth is the largest Lamport depth an honest process had when it
	// decided: the decision's latency in asynchronous rounds, the
	// longest causal chain of messages behind it (sim.Network.Depth).
	Depth int64
	// Messages and Bytes count all sent traffic; MsgsByKind and
	// BytesByKind break them down by payload kind (a wire-v2 pack counts
	// under its own kind, pack/v2, not under its items').
	Messages    int64
	Bytes       int64
	MsgsByKind  map[string]int64
	BytesByKind map[string]int64
	// Shuns lists D_i additions observed during the run.
	Shuns []Shun
	// TimedOut reports that MaxSteps was exhausted first.
	TimedOut bool
	// CoinRounds is the largest number of common-coin outputs any honest
	// process observed (ProtocolADH only) — the denominator of the
	// deliveries-per-coin-round complexity metric.
	CoinRounds uint64
	// RBCreated/MWCreated/SVSSCreated are cumulative instance creation
	// counts summed over all processes (ProtocolADH only): the per-layer
	// denominators of the message-complexity report.
	RBCreated, MWCreated, SVSSCreated uint64
	// WRBCreated equals RBCreated: WRB is the first phase of every RB
	// instance.
	//
	// Deprecated: kept only so the benchmark harness still compiles;
	// removed by ROADMAP item 6 step 1.
	WRBCreated uint64
	// EchoDeduped counts within-burst duplicate echoes suppressed under
	// Wire "v2" (expected 0 for honest traffic; the counter is an
	// invariant check as much as an optimization metric).
	EchoDeduped uint64
}

// Run executes one agreement run described by cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := newSimRun(cfg.N, cfg.T, cfg.Seed, cfg.Faults, sim.WithScheduler(cfg.scheduler()))
	res := &Result{Decisions: make(map[int]int)}
	depthAt := make([]int64, cfg.N+1)
	decide := func(pid int) func(sim.Context, int) {
		return func(_ sim.Context, v int) {
			res.Decisions[pid] = v
			depthAt[pid] = r.nw.Depth(sim.ProcID(pid))
		}
	}

	roundOf := make(map[int]func() uint64, cfg.N)
	coinFlips := make([]uint64, cfg.N+1)
	var err error
	switch cfg.Protocol {
	case ProtocolADH:
		err = r.addStacks(cfg.Wire, func(pid int, st *core.Stack) {
			st.OnDecide(decide(pid))
			st.OnCoin(func(_ sim.Context, _ uint64, _ int) { coinFlips[pid]++ })
			input := cfg.Inputs[pid-1]
			st.Node.AddInit(func(ctx sim.Context) {
				// Input validity is checked in normalize.
				_ = st.ABA.Propose(ctx, input)
			})
			roundOf[pid] = st.ABA.Round
		})
	case ProtocolBenOr:
		err = r.addNodes(func(pid int) sim.Handler {
			node := baseline.NewBenOrNode(sim.ProcID(pid), cfg.Inputs[pid-1], decide(pid))
			node.Eng.MaxRounds = 200
			roundOf[pid] = node.Eng.Round
			return node
		})
	case ProtocolLocalCoin:
		err = r.addNodes(func(pid int) sim.Handler {
			node := baseline.NewLocalCoinNode(sim.ProcID(pid), cfg.Inputs[pid-1], decide(pid))
			roundOf[pid] = node.Eng.Round
			return node
		})
	case ProtocolEpsCoin:
		err = r.addNodes(func(pid int) sim.Handler {
			node := baseline.NewEpsCoinNode(sim.ProcID(pid), cfg.Inputs[pid-1], cfg.Eps, cfg.Seed+7, decide(pid))
			roundOf[pid] = node.Eng.Round
			return node
		})
	default:
		return nil, fmt.Errorf("svssba: unknown protocol %q", cfg.Protocol)
	}
	if err != nil {
		return nil, err
	}

	allHonestDecided := func() bool {
		return r.allHonest(func(pid int) bool {
			_, ok := res.Decisions[pid]
			return ok
		})
	}
	if res.Steps, err = r.runUntil(allHonestDecided, cfg.MaxSteps); err != nil {
		return nil, err
	}
	res.TimedOut = r.timedOut
	res.Shuns = r.shuns
	res.VirtualTime = r.nw.Now()
	st := r.nw.Stats()
	res.Messages = st.Sent
	res.Bytes = st.TotalBytes()
	res.MsgsByKind = st.SentByKind
	res.BytesByKind = st.BytesByKind
	res.AllDecided = allHonestDecided()
	res.Agreed = res.AllDecided
	if res.AllDecided {
		first := res.Decisions[r.honest[0]]
		res.Value = first
		for _, i := range r.honest {
			if res.Decisions[i] != first {
				res.Agreed = false
			}
		}
	}
	for _, i := range r.honest {
		if rd := roundOf[i](); rd > res.MaxRound {
			res.MaxRound = rd
		}
		if coinFlips[i] > res.CoinRounds {
			res.CoinRounds = coinFlips[i]
		}
		res.Depth = max(res.Depth, depthAt[i])
	}
	for _, st := range r.stacks {
		if st == nil {
			continue
		}
		res.RBCreated += st.Node.RB().Created()
		res.MWCreated += st.MW.Created()
		res.SVSSCreated += st.SVSS.Created()
		res.EchoDeduped += st.Node.EchoDeduped()
	}
	res.WRBCreated = res.RBCreated
	return res, nil
}

// checkSim is the config check every simulator entry point shares: the
// resilience bound of checkBound, a known wire variant (empty means
// "v1"), and at most T faults, each naming a distinct process in 1..N
// with a known kind. It returns T and the wire variant with their
// defaults applied.
func checkSim(n, t int, wire string, faults []Fault) (int, string, error) {
	t, err := checkBound(n, t)
	if err != nil {
		return 0, "", err
	}
	switch wire {
	case "":
		wire = "v1"
	case "v1", "v2":
	default:
		return 0, "", fmt.Errorf("svssba: unknown wire variant %q", wire)
	}
	seen := make(map[int]bool, len(faults))
	for _, f := range faults {
		if f.Proc < 1 || f.Proc > n {
			return 0, "", fmt.Errorf("svssba: fault on unknown process %d", f.Proc)
		}
		if seen[f.Proc] {
			return 0, "", fmt.Errorf("svssba: process %d assigned two faults", f.Proc)
		}
		seen[f.Proc] = true
		if _, ok := behaviorFor(f.Kind, t); !ok && f.Kind != FaultCrash {
			return 0, "", fmt.Errorf("svssba: unknown fault kind %q", f.Kind)
		}
	}
	if len(faults) > t {
		return 0, "", fmt.Errorf("svssba: %d faulty processes exceed t=%d", len(faults), t)
	}
	return t, wire, nil
}

// simRun is the harness every simulator entry point shares: the
// network, the fault map, the honest set and, for ProtocolADH, one
// core.Stack per process.
type simRun struct {
	nw       *sim.Network
	faults   map[int]FaultKind
	honest   []int
	stacks   []*core.Stack // index: process id (nil for baseline nodes)
	shuns    []Shun
	timedOut bool
}

// newSimRun builds the network, the fault map and the honest set of a
// config checkSim accepted.
func newSimRun(n, t int, seed int64, faults []Fault, opts ...sim.NetworkOption) *simRun {
	r := &simRun{
		nw:     sim.NewNetwork(n, t, seed, opts...),
		faults: make(map[int]FaultKind, len(faults)),
		honest: make([]int, 0, n),
	}
	for _, f := range faults {
		r.faults[f.Proc] = f.Kind
	}
	for i := 1; i <= n; i++ {
		if _, bad := r.faults[i]; !bad {
			r.honest = append(r.honest, i)
		}
	}
	return r
}

// addStacks builds and registers one core.Stack per process: the shun
// recorder, then setup (observers, inits), then wire v2 when asked,
// then the process's fault behaviour. It crashes the crash-faulty
// processes last.
func (r *simRun) addStacks(wire string, setup func(pid int, st *core.Stack)) error {
	r.stacks = make([]*core.Stack, r.nw.N()+1)
	return r.addNodes(func(pid int) sim.Handler {
		st := core.NewStack(sim.ProcID(pid), func(j sim.ProcID, _ proto.MWID) {
			r.shuns = append(r.shuns, Shun{By: pid, Detected: int(j)})
		})
		setup(pid, st)
		if wire == "v2" {
			st.EnableWireV2()
		}
		if kind, bad := r.faults[pid]; bad && kind != FaultCrash {
			b, _ := behaviorFor(kind, r.nw.T())
			adversary.Apply(st, b)
		}
		r.stacks[pid] = st
		return st.Node
	})
}

// addNodes registers the handler build returns for each process, then
// crashes the crash-faulty processes.
func (r *simRun) addNodes(build func(pid int) sim.Handler) error {
	for pid := 1; pid <= r.nw.N(); pid++ {
		if err := r.nw.Register(build(pid)); err != nil {
			return err
		}
	}
	for pid := 1; pid <= r.nw.N(); pid++ {
		if r.faults[pid] == FaultCrash {
			r.nw.Crash(sim.ProcID(pid))
		}
	}
	return nil
}

// allHonest reports whether ok holds for every honest process.
func (r *simRun) allHonest(ok func(pid int) bool) bool {
	for _, pid := range r.honest {
		if !ok(pid) {
			return false
		}
	}
	return true
}

// runUntil delivers until cond holds (nil: until quiescence), recording
// an exhausted step budget as a timeout rather than an error.
func (r *simRun) runUntil(cond func() bool, maxSteps int) (int, error) {
	steps, err := r.nw.RunUntil(cond, maxSteps)
	if _, ok := err.(sim.ErrStepLimit); ok {
		r.timedOut = true
		err = nil
	}
	return steps, err
}
