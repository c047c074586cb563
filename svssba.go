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
	"svssba/internal/mwsvss"
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
	// CoinBatch > 0 switches ProtocolADH coin rounds 1..CoinBatch to
	// batched dealing: each process deals one CoinBatch*N-secret SVSS
	// session up front instead of one N-session dealing storm per round,
	// paying the MW quorum setup once. A declared protocol variant like
	// Wire: decisions and agreement properties are preserved (see the
	// batch equivalence test) but message schedules differ, so the v1
	// parity digest applies only to CoinBatch == 0.
	CoinBatch int
}

func (c *Config) normalize() error {
	if c.N < 2 {
		return fmt.Errorf("svssba: need at least 2 processes, have %d", c.N)
	}
	if c.T == 0 {
		c.T = (c.N - 1) / 3
	}
	if c.Protocol == "" {
		c.Protocol = ProtocolADH
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedRandom
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
	switch c.Wire {
	case "":
		c.Wire = "v1"
	case "v1", "v2":
	default:
		return fmt.Errorf("svssba: unknown wire variant %q", c.Wire)
	}
	if c.CoinBatch < 0 {
		return fmt.Errorf("svssba: negative CoinBatch %d", c.CoinBatch)
	}
	if c.CoinBatch*c.N > mwsvss.MaxBatchSlots {
		return fmt.Errorf("svssba: CoinBatch %d exceeds %d slots at n=%d",
			c.CoinBatch, mwsvss.MaxBatchSlots, c.N)
	}
	for _, f := range c.Faults {
		if f.Proc < 1 || f.Proc > c.N {
			return fmt.Errorf("svssba: fault on unknown process %d", f.Proc)
		}
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
	// Messages and Bytes count all sent traffic; MsgsByKind breaks the
	// count down by payload kind.
	Messages   int64
	Bytes      int64
	MsgsByKind map[string]int64
	// Shuns lists D_i additions observed during the run.
	Shuns []Shun
	// TimedOut reports that MaxSteps was exhausted first.
	TimedOut bool
	// CoinRounds is the largest number of common-coin outputs any honest
	// process observed (ProtocolADH only) — the denominator of the
	// deliveries-per-coin-round complexity metric.
	CoinRounds uint64
	// RBCreated/WRBCreated/MWCreated/SVSSCreated are cumulative instance
	// creation counts summed over all processes (ProtocolADH only): the
	// per-layer denominators of the message-complexity report.
	RBCreated, WRBCreated, MWCreated, SVSSCreated uint64
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
	nw := sim.NewNetwork(cfg.N, cfg.T, cfg.Seed, sim.WithScheduler(cfg.scheduler()))
	res := &Result{Decisions: make(map[int]int)}

	faults := make(map[int]FaultKind, len(cfg.Faults))
	for _, f := range cfg.Faults {
		faults[f.Proc] = f.Kind
	}
	honest := make([]int, 0, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		if _, bad := faults[i]; !bad {
			honest = append(honest, i)
		}
	}

	roundOf := make(map[int]func() uint64, cfg.N)
	var stacks []*core.Stack
	coinFlips := make([]uint64, cfg.N+1)
	switch cfg.Protocol {
	case ProtocolADH:
		stacks = make([]*core.Stack, cfg.N+1)
		for i := 1; i <= cfg.N; i++ {
			id := sim.ProcID(i)
			pid := i
			st := core.NewStack(id, func(j sim.ProcID, _ proto.MWID) {
				res.Shuns = append(res.Shuns, Shun{By: pid, Detected: int(j)})
			})
			st.OnDecide(func(_ sim.Context, v int) { res.Decisions[pid] = v })
			st.OnCoin(func(_ sim.Context, _ uint64, _ int) { coinFlips[pid]++ })
			input := cfg.Inputs[i-1]
			st.Node.AddInit(func(ctx sim.Context) {
				// Input validity is checked in normalize.
				_ = st.ABA.Propose(ctx, input)
			})
			if cfg.Wire == "v2" {
				st.EnableWireV2()
			}
			if cfg.CoinBatch > 0 {
				st.EnableCoinBatch(cfg.CoinBatch)
			}
			if kind, bad := faults[i]; bad && kind != FaultCrash {
				if b, ok := behaviorFor(kind, cfg.T); ok {
					adversary.Apply(st, b)
				}
			}
			stacks[i] = st
			eng := st.ABA
			roundOf[pid] = func() uint64 { return eng.Round() }
			if err := nw.Register(st.Node); err != nil {
				return nil, err
			}
		}
	case ProtocolBenOr:
		for i := 1; i <= cfg.N; i++ {
			pid := i
			node := baseline.NewBenOrNode(sim.ProcID(i), cfg.Inputs[i-1], func(_ sim.Context, v int) {
				res.Decisions[pid] = v
			})
			node.Eng.MaxRounds = 200
			eng := node.Eng
			roundOf[pid] = func() uint64 { return eng.Round() }
			if err := nw.Register(node); err != nil {
				return nil, err
			}
		}
	case ProtocolLocalCoin:
		for i := 1; i <= cfg.N; i++ {
			pid := i
			node := baseline.NewLocalCoinNode(sim.ProcID(i), cfg.Inputs[i-1], func(_ sim.Context, v int) {
				res.Decisions[pid] = v
			})
			eng := node.Eng
			roundOf[pid] = func() uint64 { return eng.Round() }
			if err := nw.Register(node); err != nil {
				return nil, err
			}
		}
	case ProtocolEpsCoin:
		for i := 1; i <= cfg.N; i++ {
			pid := i
			node := baseline.NewEpsCoinNode(sim.ProcID(i), cfg.Inputs[i-1], cfg.Eps, cfg.Seed+7, func(_ sim.Context, v int) {
				res.Decisions[pid] = v
			})
			eng := node.Eng
			roundOf[pid] = func() uint64 { return eng.Round() }
			if err := nw.Register(node); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("svssba: unknown protocol %q", cfg.Protocol)
	}

	for _, f := range cfg.Faults {
		if f.Kind == FaultCrash {
			nw.Crash(sim.ProcID(f.Proc))
		}
	}

	allHonestDecided := func() bool {
		for _, i := range honest {
			if _, ok := res.Decisions[i]; !ok {
				return false
			}
		}
		return true
	}
	steps, err := nw.RunUntil(allHonestDecided, cfg.MaxSteps)
	if err != nil {
		var lim sim.ErrStepLimit
		if !asStepLimit(err, &lim) {
			return nil, err
		}
		res.TimedOut = true
	}
	res.Steps = steps
	res.VirtualTime = nw.Now()
	st := nw.Stats()
	res.Messages = st.Sent
	res.Bytes = st.TotalBytes()
	res.MsgsByKind = st.SentByKind
	res.AllDecided = allHonestDecided()
	res.Agreed = res.AllDecided
	if res.AllDecided {
		first := res.Decisions[honest[0]]
		res.Value = first
		for _, i := range honest {
			if res.Decisions[i] != first {
				res.Agreed = false
			}
		}
	}
	for _, i := range honest {
		if r := roundOf[i](); r > res.MaxRound {
			res.MaxRound = r
		}
		if coinFlips[i] > res.CoinRounds {
			res.CoinRounds = coinFlips[i]
		}
	}
	for _, st := range stacks {
		if st == nil {
			continue
		}
		rbe := st.Node.RB()
		res.RBCreated += rbe.Created()
		res.WRBCreated += rbe.Weak().Created()
		res.MWCreated += st.MW.Created()
		res.SVSSCreated += st.SVSS.Created()
		res.EchoDeduped += st.Node.EchoDeduped()
	}
	return res, nil
}

func asStepLimit(err error, target *sim.ErrStepLimit) bool {
	lim, ok := err.(sim.ErrStepLimit)
	if ok {
		*target = lim
	}
	return ok
}
