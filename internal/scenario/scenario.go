// Package scenario is the adversarial scenario-matrix harness: it
// composes schedulers × adversary behaviours × (n,t) scales × seeds
// into a flat set of runner.Trials, executes the full SVSS-BA stack
// under every combination, and checks the paper's protocol invariants
// on each run:
//
//   - agreement: no two honest processes decide different values;
//   - validity: unanimous honest input v forces decision v;
//   - termination: every honest process decides within the cell's step
//     budget (the almost-sure-termination claim, made finite).
//
// Every cell is a pure function of its Config (PR 1's determinism
// contract), so a report is byte-identical for any worker count and any
// invariant violation can be reproduced from its cell id alone — the
// basis of the cmd/scenario -replay workflow.
package scenario

import (
	"fmt"
	"strings"

	"svssba"
	"svssba/internal/runner"
	"svssba/internal/trace"
)

// Scheduler is one point on the scheduler axis.
type Scheduler struct {
	// Name labels the axis value in cell ids (no slashes).
	Name string
	// Kind selects the svssba scheduler; the remaining fields carry its
	// parameters (zero values take the svssba defaults).
	Kind                svssba.SchedulerKind
	DelayLo, DelayHi    int64
	DelayMean, DelayCap int64
	Cut                 []int
	HealAt              int64
}

// Behavior is one point on the adversary axis.
type Behavior struct {
	// Name labels the axis value in cell ids (no slashes).
	Name string
	// Faults builds the fault assignment for an (n,t) system; nil means
	// fault-free.
	Faults func(n, t int) []svssba.Fault
	// Inputs builds the proposal vector; nil means the alternating 0/1
	// split (for which any agreed binary decision is valid).
	Inputs func(n int) []int
}

// Scale is one point on the system-size axis.
type Scale struct {
	// Name labels the axis value in cell ids (no slashes).
	Name string
	N, T int
}

// Matrix is a declarative scenario matrix. Cells enumerates its cross
// product in a fixed order (scheduler, behaviour, scale, seed), so cell
// ids and report layout are stable for a fixed matrix.
type Matrix struct {
	Schedulers []Scheduler
	Behaviors  []Behavior
	Scales     []Scale
	Seeds      []int64
	// MaxSteps is the per-cell delivery budget (defaults to 30M); a run
	// that exhausts it counts as a termination violation.
	MaxSteps int
}

// Cell is one fully-instantiated matrix entry.
type Cell struct {
	// ID is "scheduler/behavior/scale/seed" — the replay handle.
	ID string `json:"id"`
	// Scheduler, Behavior, Scale and Seed name the axis values.
	Scheduler string `json:"scheduler"`
	Behavior  string `json:"behavior"`
	Scale     string `json:"scale"`
	Seed      int64  `json:"seed"`
	// Config is the complete run configuration; re-running it reproduces
	// the cell exactly.
	Config svssba.Config `json:"config"`
}

// Group returns the cell's aggregation bucket (the id minus the seed).
func (c Cell) Group() string {
	return c.Scheduler + "/" + c.Behavior + "/" + c.Scale
}

// CellID formats the id for an axis combination.
func CellID(scheduler, behavior, scale string, seed int64) string {
	return fmt.Sprintf("%s/%s/%s/%d", scheduler, behavior, scale, seed)
}

// Cells enumerates the matrix cross product in deterministic order.
func (m *Matrix) Cells() []Cell {
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = 30_000_000
	}
	var cells []Cell
	for _, sch := range m.Schedulers {
		for _, b := range m.Behaviors {
			for _, sc := range m.Scales {
				for _, seed := range m.Seeds {
					cfg := svssba.Config{
						N: sc.N, T: sc.T, Seed: seed,
						Scheduler: sch.Kind,
						DelayLo:   sch.DelayLo, DelayHi: sch.DelayHi,
						DelayMean: sch.DelayMean, DelayCap: sch.DelayCap,
						PartitionCut: sch.Cut, PartitionHealAt: sch.HealAt,
						MaxSteps: maxSteps,
					}
					if b.Faults != nil {
						cfg.Faults = b.Faults(sc.N, sc.T)
					}
					if b.Inputs != nil {
						cfg.Inputs = b.Inputs(sc.N)
					} else {
						cfg.Inputs = splitInputs(sc.N)
					}
					cells = append(cells, Cell{
						ID:        CellID(sch.Name, b.Name, sc.Name, seed),
						Scheduler: sch.Name,
						Behavior:  b.Name,
						Scale:     sc.Name,
						Seed:      seed,
						Config:    cfg,
					})
				}
			}
		}
	}
	return cells
}

// Cell resolves a cell id within the matrix.
func (m *Matrix) Cell(id string) (Cell, bool) {
	for _, c := range m.Cells() {
		if c.ID == id {
			return c, true
		}
	}
	return Cell{}, false
}

// splitInputs is the default alternating 0/1 proposal vector.
func splitInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

// Violation is one invariant failure in one cell.
type Violation struct {
	Cell      string `json:"cell"`
	Invariant string `json:"invariant"` // "agreement", "validity" or "termination"
	Detail    string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s violated: %s", v.Cell, v.Invariant, v.Detail)
}

// CheckInvariants evaluates the protocol invariants for one finished
// run. cfg must be the cell's config (it determines the honest set and
// the proposal vector).
func CheckInvariants(cellID string, cfg svssba.Config, res *svssba.Result) []Violation {
	faulty := make(map[int]bool, len(cfg.Faults))
	for _, f := range cfg.Faults {
		faulty[f.Proc] = true
	}
	var honest []int
	for p := 1; p <= cfg.N; p++ {
		if !faulty[p] {
			honest = append(honest, p)
		}
	}

	var out []Violation

	// Agreement: no two honest decisions may differ, even partial ones.
	first, haveFirst := 0, false
	for _, p := range honest {
		v, ok := res.Decisions[p]
		if !ok {
			continue
		}
		if !haveFirst {
			first, haveFirst = v, true
			continue
		}
		if v != first {
			out = append(out, Violation{
				Cell: cellID, Invariant: "agreement",
				Detail: fmt.Sprintf("honest decisions differ: %v", honestDecisions(res, honest)),
			})
			break
		}
	}

	// Validity: unanimous honest input v forces every honest decision
	// to v. (With split inputs any agreed binary value is valid.)
	if unanimous, v := unanimousInput(cfg.Inputs, honest); unanimous {
		for _, p := range honest {
			if got, ok := res.Decisions[p]; ok && got != v {
				out = append(out, Violation{
					Cell: cellID, Invariant: "validity",
					Detail: fmt.Sprintf("unanimous honest input %d but process %d decided %d", v, p, got),
				})
				break
			}
		}
	}

	// Termination: every honest process must decide within the budget.
	if !res.AllDecided {
		reason := "run went quiescent"
		if res.TimedOut {
			reason = fmt.Sprintf("step budget %d exhausted", cfg.MaxSteps)
		}
		out = append(out, Violation{
			Cell: cellID, Invariant: "termination",
			Detail: fmt.Sprintf("%s with undecided honest processes: %v", reason, undecided(res, honest)),
		})
	}
	return out
}

func honestDecisions(res *svssba.Result, honest []int) map[int]int {
	d := make(map[int]int, len(honest))
	for _, p := range honest {
		if v, ok := res.Decisions[p]; ok {
			d[p] = v
		}
	}
	return d
}

func unanimousInput(inputs []int, honest []int) (bool, int) {
	if len(inputs) == 0 || len(honest) == 0 {
		return false, 0
	}
	v := inputs[honest[0]-1]
	for _, p := range honest {
		if inputs[p-1] != v {
			return false, 0
		}
	}
	return true, v
}

func undecided(res *svssba.Result, honest []int) []int {
	var out []int
	for _, p := range honest {
		if _, ok := res.Decisions[p]; !ok {
			out = append(out, p)
		}
	}
	return out
}

// CellResult is one executed cell with its invariant verdicts.
type CellResult struct {
	Cell       Cell           `json:"cell"`
	Result     *svssba.Result `json:"result,omitempty"`
	Err        string         `json:"err,omitempty"`
	Violations []Violation    `json:"violations,omitempty"`
}

// Report is the executed matrix: cell results in matrix order plus the
// flattened violation list. It marshals deterministically, so reports
// are byte-identical across worker counts.
type Report struct {
	Cells      []CellResult `json:"cells"`
	Violations []Violation  `json:"violations"`
}

// Cell returns the named cell result.
func (r *Report) Cell(id string) (CellResult, bool) {
	for _, c := range r.Cells {
		if c.Cell.ID == id {
			return c, true
		}
	}
	return CellResult{}, false
}

// Table renders the per-group aggregate (one row per scheduler ×
// behaviour × scale combination, seeds pooled).
func (r *Report) Table() *trace.Table {
	tb := trace.NewTable(
		"scenario matrix — invariants checked on every cell",
		"scheduler", "behavior", "scale", "cells", "decided", "agreed", "violations",
		"errs", "mean_rounds", "mean_steps", "del/coin", "del/mw", "del/rb", "shuns")
	type agg struct {
		cells, ran, decided, agreed, violations, errs, shuns int
		rounds, steps                                        float64
		coinRounds, mwCreated, rbCreated                     float64
	}
	var order []string
	groups := make(map[string]*agg)
	rows := make(map[string]CellResult)
	for _, cr := range r.Cells {
		key := cr.Cell.Group()
		g, ok := groups[key]
		if !ok {
			g = &agg{}
			groups[key] = g
			order = append(order, key)
			rows[key] = cr
		}
		g.cells++
		g.violations += len(cr.Violations)
		if cr.Err != "" {
			g.errs++
		}
		if cr.Result != nil {
			g.ran++
			if cr.Result.AllDecided {
				g.decided++
			}
			if cr.Result.AllDecided && cr.Result.Agreed {
				g.agreed++
			}
			g.rounds += float64(cr.Result.MaxRound)
			g.steps += float64(cr.Result.Steps)
			g.coinRounds += float64(cr.Result.CoinRounds)
			g.mwCreated += float64(cr.Result.MWCreated)
			g.rbCreated += float64(cr.Result.RBCreated)
			g.shuns += len(cr.Result.Shuns)
		}
	}
	for _, key := range order {
		g := groups[key]
		c := rows[key].Cell
		// Means are over the cells that actually produced a result, so an
		// errored cell cannot dilute them.
		meanRounds, meanSteps := any("-"), any("-")
		// Deliveries per protocol unit, pooled over the group's cells —
		// the message-complexity view the wire-v2 pass optimizes.
		perCoin, perMW, perRB := any("-"), any("-"), any("-")
		if g.ran > 0 {
			meanRounds = g.rounds / float64(g.ran)
			meanSteps = g.steps / float64(g.ran)
			if g.coinRounds > 0 {
				perCoin = g.steps / g.coinRounds
			}
			if g.mwCreated > 0 {
				perMW = g.steps / g.mwCreated
			}
			if g.rbCreated > 0 {
				perRB = g.steps / g.rbCreated
			}
		}
		tb.Add(c.Scheduler, c.Behavior, c.Scale, g.cells, g.decided, g.agreed,
			g.violations, g.errs, meanRounds, meanSteps, perCoin, perMW, perRB, g.shuns)
	}
	return tb
}

// cellResult executes the invariant check for one finished run. Replay
// and Run share it, so a replayed cell is byte-identical to its report
// entry.
func cellResult(cell Cell, res *svssba.Result, err error) CellResult {
	cr := CellResult{Cell: cell, Result: res}
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	cr.Violations = CheckInvariants(cell.ID, cell.Config, res)
	return cr
}

// Run executes every matrix cell on `workers` goroutines (< 1 =
// GOMAXPROCS) and returns the deterministic report.
func Run(m *Matrix, workers int) *Report {
	cells := m.Cells()
	trials := make([]runner.Trial, len(cells))
	for i, c := range cells {
		cfg := c.Config
		trials[i] = runner.Trial{
			Group: c.Group(),
			Name:  c.ID,
			Seed:  c.Seed,
			Do:    func() (any, error) { return svssba.Run(cfg) },
		}
	}
	results := runner.New(workers).Run(trials)

	rep := &Report{Cells: make([]CellResult, len(cells))}
	for i, tr := range results {
		res, _ := tr.Value.(*svssba.Result)
		cr := cellResult(cells[i], res, tr.Err)
		rep.Cells[i] = cr
		rep.Violations = append(rep.Violations, cr.Violations...)
	}
	return rep
}

// Replay re-runs one cell by id. The returned result is byte-identical
// to the cell's entry in a full Run of the same matrix (runs are pure
// functions of their seeded config).
func Replay(m *Matrix, cellID string) (CellResult, error) {
	cell, ok := m.Cell(cellID)
	if !ok {
		return CellResult{}, fmt.Errorf("scenario: unknown cell %q (try -list)", cellID)
	}
	res, err := svssba.Run(cell.Config)
	return cellResult(cell, res, err), nil
}

// Quick returns the CI-scale default matrix: 4 schedulers × 7
// behaviours × 2 scales × 1 seed = 56 cells, every cell checked against
// all three invariants.
func Quick() *Matrix {
	return &Matrix{
		Schedulers: DefaultSchedulers(),
		Behaviors:  DefaultBehaviors(),
		Scales: []Scale{
			{Name: "n4", N: 4, T: 1},
			{Name: "n5", N: 5, T: 1},
		},
		// One seed chosen for short expected runs at both scales; -seeds
		// on cmd/scenario widens the axis.
		Seeds: []int64{1002},
	}
}

// Full returns the deep matrix: 5 schedulers × 10 behaviours × 4 scales
// × 3 seeds = 600 cells, including the n=7/t=2 axis that the send-path
// batching and echo-pruning pass opened up and the n=10/t=3 axis that
// the interned-tag dense-state port (PR 5) made affordable (an n7 cell
// runs tens of millions of deliveries, an n10 cell ~125M per coin
// round — the big axes are for deliberate deep runs, not CI; slice
// them with cmd/scenario -scale). The step budget is sized for the
// n10 cells, whose honest runs need well past the n7 budget (per-
// round traffic grows steeply: n² sessions × n(n−1) MW sub-instances,
// each echoing through n²-message reliable broadcasts).
func Full() *Matrix {
	scheds := append(DefaultSchedulers(), Scheduler{
		Name: "delay-uniform", Kind: svssba.SchedDelayUniform, DelayLo: 1, DelayHi: 100,
	})
	behaviors := append(DefaultBehaviors(),
		SingleFault("rval-lie", svssba.FaultRValLie),
		SingleFault("targeted-delay", svssba.FaultTargetedDelay),
		SingleFault("cross-equivocate", svssba.FaultCrossEquivocate),
	)
	return &Matrix{
		Schedulers: scheds,
		Behaviors:  behaviors,
		Scales: []Scale{
			{Name: "n4", N: 4, T: 1},
			{Name: "n5", N: 5, T: 1},
			{Name: "n7", N: 7, T: 2},
			{Name: "n10", N: 10, T: 3},
			// The n13/t4 axis rides burst coalescing: with one message
			// per logical payload one n13 coin round alone would blow
			// the step budget.
			{Name: "n13", N: 13, T: 4},
		},
		Seeds:    []int64{1000, 1001, 1002},
		MaxSteps: 500_000_000,
	}
}

// DefaultSchedulers is the quick scheduler axis: benign orders, random
// delays, and a healing partition.
func DefaultSchedulers() []Scheduler {
	return []Scheduler{
		{Name: "random", Kind: svssba.SchedRandom},
		{Name: "fifo", Kind: svssba.SchedFIFO},
		{Name: "delay-exp", Kind: svssba.SchedDelayExp, DelayMean: 20},
		{Name: "partition", Kind: svssba.SchedPartition, HealAt: 2000},
	}
}

// DefaultBehaviors is the quick adversary axis.
func DefaultBehaviors() []Behavior {
	return []Behavior{
		NoFault(),
		CrashBudget(),
		SingleFault("silent", svssba.FaultSilent),
		SingleFault("vote-equivocate", svssba.FaultVoteEquivocate),
		SingleFault("mute-burst", svssba.FaultMuteBurst),
		SingleFault("coin-bias", svssba.FaultCoinBias),
		Unanimous1VoteFlip(),
	}
}

// NoFault is the fault-free behaviour (split inputs).
func NoFault() Behavior { return Behavior{Name: "none"} }

// SingleFault assigns the given fault kind to the highest-numbered
// process.
func SingleFault(name string, kind svssba.FaultKind) Behavior {
	return Behavior{
		Name: name,
		Faults: func(n, t int) []svssba.Fault {
			return []svssba.Fault{{Proc: n, Kind: kind}}
		},
	}
}

// CrashBudget crashes the full fault budget: the last t processes.
func CrashBudget() Behavior {
	return Behavior{
		Name: "crash-t",
		Faults: func(n, t int) []svssba.Fault {
			fs := make([]svssba.Fault, 0, t)
			for p := n - t + 1; p <= n; p++ {
				fs = append(fs, svssba.Fault{Proc: p, Kind: svssba.FaultCrash})
			}
			return fs
		},
	}
}

// Unanimous1VoteFlip gives every honest process input 1 and makes the
// last process flip its votes — the sharpest validity probe: the
// invariant is violated by any decision other than 1.
func Unanimous1VoteFlip() Behavior {
	return Behavior{
		Name:   "unanimous1-vote-flip",
		Faults: func(n, t int) []svssba.Fault { return []svssba.Fault{{Proc: n, Kind: svssba.FaultVoteFlip}} },
		Inputs: func(n int) []int {
			in := make([]int, n)
			for i := range in {
				in[i] = 1
			}
			return in
		},
	}
}

// ValidateNames rejects axis names that would corrupt cell ids.
func (m *Matrix) ValidateNames() error {
	check := func(kind, name string) error {
		if name == "" || strings.Contains(name, "/") {
			return fmt.Errorf("scenario: invalid %s name %q", kind, name)
		}
		return nil
	}
	for _, s := range m.Schedulers {
		if err := check("scheduler", s.Name); err != nil {
			return err
		}
	}
	for _, b := range m.Behaviors {
		if err := check("behavior", b.Name); err != nil {
			return err
		}
	}
	for _, s := range m.Scales {
		if err := check("scale", s.Name); err != nil {
			return err
		}
	}
	return nil
}
