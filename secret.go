package svssba

import (
	"fmt"

	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// SVSSConfig describes a standalone shunning-VSS run: one dealer shares
// a secret, everyone reconstructs.
type SVSSConfig struct {
	N, T   int
	Seed   int64
	Dealer int
	Secret uint64
	Faults []Fault
	// MaxSteps bounds the run (defaults to 200M deliveries).
	MaxSteps int
	// Wire must be "" or "v2"; see Config.Wire.
	//
	// Deprecated: kept only so the benchmark harness, which sets "v2",
	// still compiles; removed with the other shims of ROADMAP item 6
	// step 2.
	Wire string
}

// SecretValue is one process's reconstruction output: a value or ⊥.
type SecretValue struct {
	Value  uint64
	Bottom bool
}

// String implements fmt.Stringer.
func (v SecretValue) String() string {
	if v.Bottom {
		return "⊥"
	}
	return fmt.Sprintf("%d", v.Value)
}

// SVSSResult reports a standalone SVSS run.
type SVSSResult struct {
	// Outputs maps each process that completed reconstruction to its
	// output.
	Outputs map[int]SecretValue
	// ShareCompleted lists processes that completed the share phase.
	ShareCompleted []int
	// Shuns lists D_i additions observed.
	Shuns []Shun
	// Messages and Bytes count all traffic.
	Messages, Bytes int64
	// TimedOut reports that MaxSteps was exhausted.
	TimedOut bool
}

// RunSVSS executes one share+reconstruct session.
func RunSVSS(cfg SVSSConfig) (*SVSSResult, error) {
	var err error
	if cfg.T, err = checkSim(cfg.N, cfg.T, cfg.Wire, cfg.Faults); err != nil {
		return nil, err
	}
	if cfg.Dealer == 0 {
		cfg.Dealer = 1
	}
	if cfg.Dealer < 1 || cfg.Dealer > cfg.N {
		return nil, fmt.Errorf("svssba: dealer %d out of range", cfg.Dealer)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}

	r := newSimRun(cfg.N, cfg.T, cfg.Seed, cfg.Faults)
	res := &SVSSResult{Outputs: make(map[int]SecretValue)}
	sid := proto.SessionID{Dealer: sim.ProcID(cfg.Dealer), Kind: proto.KindApp, Round: 1}
	shareDone := make(map[int]bool, cfg.N)
	if err := r.addStacks(func(pid int, st *core.Stack) {
		st.ConsumeSVSS(proto.KindApp, core.SVSSConsumer{
			ShareComplete: func(_ sim.Context, _ proto.SessionID) {
				shareDone[pid] = true
			},
			ReconComplete: func(_ sim.Context, _ proto.SessionID, _ int, out svss.Output) {
				res.Outputs[pid] = SecretValue{Value: out.Value.Uint64(), Bottom: out.Bottom}
			},
		})
	}); err != nil {
		return nil, err
	}

	dealer := r.stacks[cfg.Dealer]
	dealer.Node.AddInit(func(ctx sim.Context) {
		// The dealer role and fresh session make this error-free.
		_ = dealer.SVSS.Share(ctx, sid, field.New(cfg.Secret))
	})

	honestShared := func() bool { return r.allHonest(func(pid int) bool { return shareDone[pid] }) }
	if _, err := r.runUntil(honestShared, cfg.MaxSteps); err != nil {
		return nil, err
	}
	if honestShared() {
		for pid := 1; pid <= cfg.N; pid++ {
			if r.faults[pid] == FaultCrash {
				continue
			}
			st := r.stacks[pid]
			if err := r.nw.Inject(sim.ProcID(pid), func(ctx sim.Context) {
				st.SVSS.Reconstruct(ctx, sid)
			}); err != nil {
				return nil, err
			}
		}
		honestOut := func() bool {
			return r.allHonest(func(pid int) bool {
				_, ok := res.Outputs[pid]
				return ok
			})
		}
		if _, err := r.runUntil(honestOut, cfg.MaxSteps); err != nil {
			return nil, err
		}
		// Drain remaining traffic so late detections land.
		if _, err := r.runUntil(nil, cfg.MaxSteps); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= cfg.N; i++ {
		if shareDone[i] {
			res.ShareCompleted = append(res.ShareCompleted, i)
		}
	}
	res.Shuns = r.shuns
	res.TimedOut = r.timedOut
	st := r.nw.Stats()
	res.Messages = st.Sent
	res.Bytes = st.TotalBytes()
	return res, nil
}

// CoinConfig describes a run of consecutive common-coin rounds.
type CoinConfig struct {
	N, T   int
	Seed   int64
	Rounds int
	Faults []Fault
	// MaxSteps bounds each round (defaults to 200M deliveries).
	MaxSteps int
	// Wire must be "" or "v2"; see Config.Wire.
	//
	// Deprecated: kept only so the benchmark harness, which sets "v2",
	// still compiles; removed with the other shims of ROADMAP item 6
	// step 2.
	Wire string
}

// CoinRound reports one coin invocation.
type CoinRound struct {
	// Bits maps process id to its coin output.
	Bits map[int]int
	// Agreed reports whether all honest outputs coincide; Value is the
	// common bit when they do.
	Agreed bool
	Value  int
	// Depth is the largest Lamport depth an honest process had at its
	// output of this round, counted from the run's start (see
	// Result.Depth).
	Depth int64
}

// CoinResult reports a multi-round coin run.
type CoinResult struct {
	RoundResults []CoinRound
	// Messages and Bytes count all sent traffic; MsgsByKind and
	// BytesByKind break them down by payload kind, as in Result.
	Messages, Bytes int64
	MsgsByKind      map[string]int64
	BytesByKind     map[string]int64
	Shuns           []Shun
	TimedOut        bool
	// Pulls counts the body pulls every process's RB engine sent, and
	// Served and ServedBytes the bodies sent in answer and their payload
	// bytes (rb.Engine.Pulls, Served): what a digest-echoed body cost to
	// reach a process that accepted its digest without it.
	Pulls, Served, ServedBytes int64
	// MWCreated is the cumulative number of MW-SVSS instances created,
	// summed over all processes' engines, as in Result.
	MWCreated uint64
	// SlotReuses always reads 0: the simulator has no batched coin
	// supply.
	//
	// Deprecated: kept only so existing readers still compile; removed
	// with the other shims of ROADMAP item 6 step 2.
	SlotReuses uint64
}

// RunCoin executes cfg.Rounds sequential common-coin invocations.
func RunCoin(cfg CoinConfig) (*CoinResult, error) { return runCoin(cfg) }

// runCoin is RunCoin on a network built with opts (tests pick the
// scheduler through it).
func runCoin(cfg CoinConfig, opts ...sim.NetworkOption) (*CoinResult, error) {
	var err error
	if cfg.T, err = checkSim(cfg.N, cfg.T, cfg.Wire, cfg.Faults); err != nil {
		return nil, err
	}
	if cfg.Rounds < 0 {
		return nil, fmt.Errorf("svssba: negative round count %d", cfg.Rounds)
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}

	r := newSimRun(cfg.N, cfg.T, cfg.Seed, cfg.Faults, opts...)
	res := &CoinResult{}
	bits := make(map[uint64]map[int]int)
	depths := make(map[uint64]int64) // round → the largest depth at an honest output
	if err := r.addStacks(func(pid int, st *core.Stack) {
		st.OnCoin(func(_ sim.Context, round uint64, bit int) {
			m, ok := bits[round]
			if !ok {
				m = make(map[int]int)
				bits[round] = m
			}
			m[pid] = bit
			if _, faulty := r.faults[pid]; !faulty {
				depths[round] = max(depths[round], r.nw.Depth(sim.ProcID(pid)))
			}
		})
	}); err != nil {
		return nil, err
	}

	for round := uint64(1); round <= uint64(cfg.Rounds); round++ {
		for _, i := range r.honest {
			st := r.stacks[i]
			if err := r.nw.Inject(sim.ProcID(i), func(ctx sim.Context) {
				st.Coin.Start(ctx, round)
			}); err != nil {
				return nil, err
			}
		}
		done := func() bool {
			m := bits[round]
			return r.allHonest(func(pid int) bool {
				_, ok := m[pid]
				return ok
			})
		}
		if _, err := r.runUntil(done, cfg.MaxSteps); err != nil {
			return nil, err
		}
		if !done() {
			r.timedOut = true
			break
		}
		cr := CoinRound{Bits: make(map[int]int), Agreed: true, Depth: depths[round]}
		m := bits[round]
		for pid, b := range m {
			cr.Bits[pid] = b
		}
		first := m[r.honest[0]]
		cr.Value = first
		for _, i := range r.honest {
			if m[i] != first {
				cr.Agreed = false
			}
		}
		res.RoundResults = append(res.RoundResults, cr)
	}
	res.Shuns = r.shuns
	res.TimedOut = r.timedOut
	st := r.nw.Stats()
	res.Messages = st.Sent
	res.Bytes = st.TotalBytes()
	res.MsgsByKind = st.SentByKind
	res.BytesByKind = st.BytesByKind
	res.Pulls, res.Served, res.ServedBytes = r.pullCounts()
	for _, st := range r.stacks {
		if st != nil {
			res.MWCreated += st.MW.Created()
		}
	}
	return res, nil
}
