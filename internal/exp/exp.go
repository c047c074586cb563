// Package exp implements the reproduction experiments E1–E10. The paper
// has no tables or figures — it is a theory paper — so each experiment
// operationalizes one of its quantitative claims (Theorem 1's
// properties, the SCC Correctness bound, the t(n−t) shunning bound,
// polynomial message complexity, and the failure modes of the
// prior-work baselines). Each experiment declares a set of independent
// runner.Trials and renders one plain-text table from the aggregated
// summary; cmd/expsweep regenerates them all (optionally fanning trials
// across workers with -parallel) and bench_test.go wraps them as
// benchmarks.
//
// Determinism contract: every trial is a seeded deterministic
// simulation and aggregation happens in trial-index order, so a table
// is a pure function of its Scale — the Workers count changes only
// wall-clock time, never a byte of output.
package exp

import (
	"fmt"

	"svssba"
	"svssba/internal/adversary"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/runner"
	"svssba/internal/scenario"
	"svssba/internal/sim"
	"svssba/internal/svss"
	"svssba/internal/testutil"
	"svssba/internal/trace"
)

// Scale controls experiment sizes and execution parallelism.
type Scale struct {
	// Quick trims process counts and seed counts for CI-speed runs.
	Quick bool
	// Workers bounds concurrent trials (0 = sequential). Tables are
	// identical for every value; only wall-clock time changes.
	Workers int
}

func (s Scale) pick(quick, full int) int {
	if s.Quick {
		return quick
	}
	return full
}

// run executes a trial set at this scale's parallelism and aggregates.
func (s Scale) run(trials []runner.Trial) *runner.Summary {
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	return runner.Execute(workers, trials)
}

// E1 — Theorem 1: agreement, validity and termination at n > 3t across
// fault mixes.
func E1(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E1 — Theorem 1: agreement/validity/termination at n>3t",
		"n", "t", "fault", "runs", "decided", "agreed", "valid", "mean_rounds", "mean_msgs")

	type cfg struct {
		n     int
		fault svssba.FaultKind
		runs  int
	}
	cases := []cfg{
		{n: 4, fault: "", runs: scale.pick(3, 10)},
		{n: 4, fault: svssba.FaultCrash, runs: scale.pick(3, 10)},
		{n: 4, fault: svssba.FaultVoteFlip, runs: scale.pick(2, 8)},
		{n: 4, fault: svssba.FaultRValLie, runs: scale.pick(2, 8)},
		{n: 7, fault: "", runs: scale.pick(1, 3)},
		{n: 7, fault: svssba.FaultVoteEquivocate, runs: scale.pick(0, 2)},
	}

	classify := func(res *svssba.Result, err error) runner.Classification {
		if err != nil {
			return runner.Classification{}
		}
		c := runner.Classification{Values: map[string]float64{
			"rounds": float64(res.MaxRound),
			"msgs":   float64(res.Messages),
		}}
		if res.AllDecided {
			c.Counts = append(c.Counts, "decided")
		}
		if res.Agreed {
			// Inputs alternate 0/1, so any binary decision is valid.
			c.Counts = append(c.Counts, "agreed", "valid")
		}
		return c
	}

	var trials []runner.Trial
	group := func(c cfg) string { return fmt.Sprintf("n%d/%s", c.n, c.fault) }
	for _, c := range cases {
		for seed := 0; seed < c.runs; seed++ {
			rc := svssba.Config{N: c.n, Seed: int64(1000 + seed)}
			if c.fault != "" {
				rc.Faults = []svssba.Fault{{Proc: c.n, Kind: c.fault}}
			}
			trials = append(trials, runner.Agreement(group(c), rc, classify))
		}
	}
	sum := scale.run(trials)

	for _, c := range cases {
		if c.runs == 0 {
			continue
		}
		g := sum.Group(group(c))
		name := string(c.fault)
		if name == "" {
			name = "none"
		}
		tb.Add(c.n, (c.n-1)/3, name, c.runs,
			frac(g.Count("decided"), c.runs), frac(g.Count("agreed"), c.runs),
			frac(g.Count("valid"), c.runs),
			g.Series("rounds").Mean(), g.Series("msgs").Mean())
	}
	return tb
}

// E2 — expected rounds: common coin (flat) vs local coin (grows with n)
// vs Ben-Or (needs n > 5t), on split inputs.
func E2(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E2 — expected voting rounds to decide, split inputs",
		"protocol", "n", "t", "runs", "mean_rounds", "max_rounds", "timeouts")

	type cfg struct {
		p        svssba.Protocol
		n, t     int
		runs     int
		maxSteps int
	}
	var cases []cfg
	cases = append(cases, cfg{p: svssba.ProtocolADH, n: 4, t: 1, runs: scale.pick(3, 10)})
	if !scale.Quick {
		cases = append(cases, cfg{p: svssba.ProtocolADH, n: 7, t: 2, runs: 2})
	}
	localNs := []int{4, 7, 10}
	if !scale.Quick {
		localNs = append(localNs, 13)
	}
	for _, n := range localNs {
		cases = append(cases, cfg{
			p: svssba.ProtocolLocalCoin, n: n, t: (n - 1) / 3,
			runs: scale.pick(6, 20), maxSteps: 20_000_000,
		})
	}
	// Ben-Or requires n > 5t.
	cases = append(cases,
		cfg{p: svssba.ProtocolBenOr, n: 7, t: 1, runs: scale.pick(6, 20), maxSteps: 20_000_000},
		cfg{p: svssba.ProtocolBenOr, n: 13, t: 2, runs: scale.pick(4, 12), maxSteps: 20_000_000},
	)

	classify := func(res *svssba.Result, err error) runner.Classification {
		if err != nil || res.TimedOut || !res.AllDecided {
			return runner.Count("timeout")
		}
		return runner.Classification{Values: map[string]float64{"rounds": float64(res.MaxRound)}}
	}

	var trials []runner.Trial
	group := func(c cfg) string { return fmt.Sprintf("%s/n%d/t%d", c.p, c.n, c.t) }
	for _, c := range cases {
		for seed := 0; seed < c.runs; seed++ {
			trials = append(trials, runner.Agreement(group(c), svssba.Config{
				N: c.n, T: c.t, Seed: int64(2000 + seed), Protocol: c.p, MaxSteps: c.maxSteps,
			}, classify))
		}
	}
	sum := scale.run(trials)

	for _, c := range cases {
		g := sum.Group(group(c))
		rounds := g.Series("rounds")
		tb.Add(string(c.p), c.n, c.t, c.runs, rounds.Mean(), rounds.Max(), g.Count("timeout"))
	}
	return tb
}

// E3 — SCC Correctness (Definition 2): empirical Pr[all σ] for each σ.
func E3(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E3 — shunning common coin distribution (SCC needs >= 1/4 per side)",
		"n", "fault", "runs", "all0", "all1", "split", "shun_events")

	type cfg struct {
		n     int
		fault svssba.FaultKind
		runs  int
	}
	cases := []cfg{
		{n: 4, fault: "", runs: scale.pick(24, 48)},
		{n: 4, fault: svssba.FaultRValLie, runs: scale.pick(24, 24)},
		{n: 7, fault: "", runs: scale.pick(0, 8)},
	}

	classify := func(res *svssba.CoinResult, err error) runner.Classification {
		if err != nil || len(res.RoundResults) == 0 {
			return runner.Classification{}
		}
		c := runner.Classification{Values: map[string]float64{"shuns": float64(len(res.Shuns))}}
		rr := res.RoundResults[0]
		switch {
		case !rr.Agreed:
			c.Counts = append(c.Counts, "split")
		case rr.Value == 0:
			c.Counts = append(c.Counts, "all0")
		default:
			c.Counts = append(c.Counts, "all1")
		}
		return c
	}

	var trials []runner.Trial
	group := func(c cfg) string { return fmt.Sprintf("n%d/%s", c.n, c.fault) }
	for _, c := range cases {
		for seed := 0; seed < c.runs; seed++ {
			cc := svssba.CoinConfig{N: c.n, Seed: int64(3000 + seed), Rounds: 1}
			if c.fault != "" {
				cc.Faults = []svssba.Fault{{Proc: c.n, Kind: c.fault}}
			}
			trials = append(trials, runner.Coin(group(c), cc, classify))
		}
	}
	sum := scale.run(trials)

	for _, c := range cases {
		if c.runs == 0 {
			continue
		}
		g := sum.Group(group(c))
		name := string(c.fault)
		if name == "" {
			name = "none"
		}
		tb.Add(c.n, name, c.runs,
			frac(g.Count("all0"), c.runs), frac(g.Count("all1"), c.runs),
			g.Count("split"), int(g.Series("shuns").Sum()))
	}
	return tb
}

// sessionRunner drives repeated SVSS sessions over one long-lived
// network, tracking cumulative shun pairs — the substrate for E4 and E8.
type sessionRunner struct {
	n, t     int
	nw       *sim.Network
	stacks   map[int]*core.Stack
	outputs  map[int]map[outKey]svss.Output
	shunPair map[[2]int]bool
}

// outKey names one slot output of one session.
type outKey struct {
	round uint64
	slot  int
}

func newSessionRunner(n, t int, seed int64, liar int, disableDMM bool) *sessionRunner {
	r := &sessionRunner{
		n: n, t: t,
		nw:       sim.NewNetwork(n, t, seed),
		stacks:   make(map[int]*core.Stack, n),
		outputs:  make(map[int]map[outKey]svss.Output),
		shunPair: make(map[[2]int]bool),
	}
	for i := 1; i <= n; i++ {
		pid := i
		st := core.NewStack(sim.ProcID(i), func(j sim.ProcID, _ proto.MWID) {
			r.shunPair[[2]int{pid, int(j)}] = true
		})
		r.outputs[pid] = make(map[outKey]svss.Output)
		st.ConsumeSVSS(proto.KindApp, core.SVSSConsumer{
			ReconComplete: func(_ sim.Context, sid proto.SessionID, slot int, out svss.Output) {
				r.outputs[pid][outKey{sid.Round, slot}] = out
			},
		})
		if disableDMM {
			st.Node.DMM().Disable()
		}
		if pid == liar {
			adversary.Apply(st, adversary.RValLiar(1))
		}
		r.stacks[pid] = st
		// Registration cannot fail: ids are in range and unique.
		_ = r.nw.Register(st.Node)
	}
	return r
}

// honestShunPairs counts (nonfaulty shunner, shunned) pairs — the
// quantity the paper bounds by t(n−t).
func (r *sessionRunner) honestShunPairs(liar int) int {
	count := 0
	for pair := range r.shunPair {
		if pair[0] != liar {
			count++
		}
	}
	return count
}

// session runs one share+reconstruct session of width secrets
// (secret, secret+1, …; one ShareVec, every slot reconstructed in one
// pass) and reports how many honest slot outputs were wrong (not the
// slot's secret, or ⊥).
func (r *sessionRunner) session(round uint64, dealer int, secret uint64, width, liar int) (wrong int, ok bool) {
	sid := proto.SessionID{Dealer: sim.ProcID(dealer), Kind: proto.KindApp, Round: round}
	secrets := make([]field.Element, width)
	slots := make([]int, width)
	for s := range secrets {
		secrets[s] = field.New(secret + uint64(s))
		slots[s] = s
	}
	st := r.stacks[dealer]
	if err := r.nw.Inject(sim.ProcID(dealer), func(ctx sim.Context) {
		_ = st.SVSS.ShareVec(ctx, sid, secrets)
	}); err != nil {
		return 0, false
	}
	honest := make([]int, 0, r.n)
	for i := 1; i <= r.n; i++ {
		if i != liar {
			honest = append(honest, i)
		}
	}
	shared := func() bool {
		for _, i := range honest {
			if !r.stacks[i].SVSS.ShareDone(sid) {
				return false
			}
		}
		return true
	}
	if _, err := r.nw.RunUntil(shared, 100_000_000); err != nil || !shared() {
		return 0, false
	}
	for i := 1; i <= r.n; i++ {
		pid := i
		_ = r.nw.Inject(sim.ProcID(pid), func(ctx sim.Context) {
			r.stacks[pid].SVSS.ReconstructSlots(ctx, sid, slots)
		})
	}
	done := func() bool {
		for _, i := range honest {
			for s := range slots {
				if _, got := r.outputs[i][outKey{round, s}]; !got {
					return false
				}
			}
		}
		return true
	}
	if _, err := r.nw.RunUntil(done, 100_000_000); err != nil || !done() {
		return 0, false
	}
	// Drain so late lies surface and detections land before the next
	// session begins.
	if _, err := r.nw.Run(100_000_000); err != nil {
		return 0, false
	}
	for _, i := range honest {
		for s, want := range secrets {
			if out := r.outputs[i][outKey{round, s}]; out.Bottom || out.Value != want {
				wrong++
			}
		}
	}
	return wrong, true
}

// sessionRow is one session's outcome in the E4 and E8 tables.
type sessionRow struct {
	session  int
	wrong    int
	stuck    bool
	cumShuns int
}

// liarSessions runs up to sessions SVSS sessions of the given width
// (dealer 1, secrets base+s, …) on one long-lived network in which
// process liar lies on every reveal. A session that does not complete
// ends the sequence as a stuck row.
func liarSessions(n, t int, seed int64, liar, width, sessions int, base uint64, disableDMM bool) []sessionRow {
	r := newSessionRunner(n, t, seed, liar, disableDMM)
	var rows []sessionRow
	for s := 1; s <= sessions; s++ {
		wrong, ok := r.session(uint64(s), 1, base+uint64(s), width, liar)
		rows = append(rows, sessionRow{session: s, wrong: wrong, stuck: !ok, cumShuns: r.honestShunPairs(liar)})
		if !ok {
			break
		}
	}
	return rows
}

// E4 — the shunning bound: a persistent liar can ruin only boundedly
// many sessions; cumulative shun pairs never exceed t(n−t). The width-n
// arm deals every session as one ShareVec batch, so the liar lies on
// multi-slot reveals.
func E4(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E4 — shunning bounds adversarial damage (liar = process 4, n=4, t=1)",
		"width", "session", "wrong_outputs", "cum_shun_pairs", "bound_t(n-t)")
	const n, t, liar = 4, 1, 4
	sessions := scale.pick(6, 12)
	widths := []int{1, n}

	// The sessions of one width share one long-lived network, so each
	// width's sequence is a single trial; the runner still isolates its
	// panics.
	var trials []runner.Trial
	for _, width := range widths {
		trials = append(trials, runner.Custom(fmt.Sprintf("e4/w%d", width), 77, func() (any, error) {
			return liarSessions(n, t, 77, liar, width, sessions, 1000, false), nil
		}))
	}
	sum := scale.run(trials)

	bound := t * (n - t)
	for _, width := range widths {
		for _, tr := range sum.Group(fmt.Sprintf("e4/w%d", width)).Results() {
			if tr.Err != nil {
				// Surface trial failures (including recovered panics)
				// instead of rendering an empty table.
				tb.Add(width, "error", tr.Err.Error(), "-", bound)
				continue
			}
			rows, _ := tr.Value.([]sessionRow)
			for _, row := range rows {
				if row.stuck {
					tb.Add(width, row.session, "stuck", row.cumShuns, bound)
				} else {
					tb.Add(width, row.session, row.wrong, row.cumShuns, bound)
				}
			}
		}
	}
	return tb
}

// E8 — ablation: with the DMM disabled the liar ruins sessions forever;
// with it, damage stops once the liar is shunned. Each arm runs once
// with single-secret sessions and once with width-n ShareVec sessions.
func E8(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E8 — DMM ablation: ruined sessions with and without shunning (n=4, liar=4)",
		"width", "sessions", "dmm", "ruined_sessions", "shun_pairs")
	const n, liar = 4, 4
	sessions := scale.pick(6, 12)
	widths := []int{1, n}

	// The ablation arms are independent networks and run as independent
	// trials.
	group := func(width int, disable bool) string { return fmt.Sprintf("w%d/dmm=%t", width, !disable) }
	var trials []runner.Trial
	for _, width := range widths {
		for _, disable := range []bool{false, true} {
			trials = append(trials, runner.Custom(group(width, disable), 99, func() (any, error) {
				return liarSessions(n, 1, 99, liar, width, sessions, 2000, disable), nil
			}))
		}
	}
	sum := scale.run(trials)

	for _, width := range widths {
		for _, disable := range []bool{false, true} {
			mode := "on"
			if disable {
				mode = "off"
			}
			for _, tr := range sum.Group(group(width, disable)).Results() {
				if tr.Err != nil {
					tb.Add(width, sessions, mode, "error: "+tr.Err.Error(), "-")
					continue
				}
				rows, _ := tr.Value.([]sessionRow)
				ruined, shunPairs := 0, 0
				for _, row := range rows {
					if !row.stuck && row.wrong > 0 {
						ruined++
					}
					shunPairs = row.cumShuns
				}
				tb.Add(width, sessions, mode, ruined, shunPairs)
			}
		}
	}
	return tb
}

// e5Meas is one primitive measurement in the E5 table.
type e5Meas struct {
	msgs  int64
	bytes int64
}

// E5 — message/byte complexity per primitive versus n, with fitted
// log-log slopes demonstrating polynomial growth.
func E5(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E5 — messages and bytes per primitive vs n (polynomial efficiency)",
		"primitive", "n", "messages", "bytes")

	rbSizes := []int{4, 7, 10, 13}
	if scale.Quick {
		rbSizes = []int{4, 7, 10}
	}
	svssSizes := []int{4, 7}
	if !scale.Quick {
		svssSizes = []int{4, 7, 10}
	}
	coinSizes := []int{4}
	if !scale.Quick {
		coinSizes = []int{4, 7}
	}
	abaSizes := []int{4}
	if !scale.Quick {
		abaSizes = []int{4, 7}
	}

	var trials []runner.Trial
	for _, n := range rbSizes {
		n := n
		trials = append(trials, runner.Custom(fmt.Sprintf("rb/n%d", n), 1, func() (any, error) {
			msgs, bytes := measureRB(n)
			return e5Meas{msgs: msgs, bytes: bytes}, nil
		}))
	}
	for _, n := range svssSizes {
		trials = append(trials, runner.SVSS(fmt.Sprintf("svss/n%d", n),
			svssba.SVSSConfig{N: n, Seed: 5, Secret: 1}, nil))
	}
	for _, n := range coinSizes {
		trials = append(trials, runner.Coin(fmt.Sprintf("coin/n%d", n),
			svssba.CoinConfig{N: n, Seed: 5, Rounds: 1}, nil))
	}
	for _, n := range abaSizes {
		trials = append(trials, runner.Agreement(fmt.Sprintf("aba/n%d", n),
			svssba.Config{N: n, Seed: 5}, nil))
	}
	sum := scale.run(trials)

	meas := func(group string) (e5Meas, bool) {
		rs := sum.Group(group).Results()
		if len(rs) == 0 || rs[0].Err != nil {
			return e5Meas{}, false
		}
		switch v := rs[0].Value.(type) {
		case e5Meas:
			return v, true
		case *svssba.SVSSResult:
			return e5Meas{msgs: v.Messages, bytes: v.Bytes}, true
		case *svssba.CoinResult:
			return e5Meas{msgs: v.Messages, bytes: v.Bytes}, true
		case *svssba.Result:
			return e5Meas{msgs: v.Messages, bytes: v.Bytes}, true
		}
		return e5Meas{}, false
	}

	var rbNs, rbMsgs, svssNs, svssMsgs []float64
	for _, n := range rbSizes {
		if m, ok := meas(fmt.Sprintf("rb/n%d", n)); ok {
			tb.Add("reliable-broadcast", n, m.msgs, m.bytes)
			rbNs = append(rbNs, float64(n))
			rbMsgs = append(rbMsgs, float64(m.msgs))
		}
	}
	for _, n := range svssSizes {
		if m, ok := meas(fmt.Sprintf("svss/n%d", n)); ok {
			tb.Add("svss", n, m.msgs, m.bytes)
			svssNs = append(svssNs, float64(n))
			svssMsgs = append(svssMsgs, float64(m.msgs))
		}
	}
	for _, n := range coinSizes {
		if m, ok := meas(fmt.Sprintf("coin/n%d", n)); ok {
			tb.Add("common-coin", n, m.msgs, m.bytes)
		}
	}
	for _, n := range abaSizes {
		if m, ok := meas(fmt.Sprintf("aba/n%d", n)); ok {
			tb.Add("agreement(full)", n, m.msgs, m.bytes)
		}
	}

	tb.Add("slope(rb)", "-", fmt.Sprintf("n^%.2f", trace.LogLogSlope(rbNs, rbMsgs)), "-")
	tb.Add("slope(svss)", "-", fmt.Sprintf("n^%.2f", trace.LogLogSlope(svssNs, svssMsgs)), "-")
	return tb
}

// measureRB runs one reliable broadcast and counts traffic.
func measureRB(n int) (int64, int64) {
	t := (n - 1) / 3
	nw := sim.NewNetwork(n, t, 1)
	accepted := 0
	tag := proto.Tag{Proto: proto.ProtoRB, Step: 1}
	for p := 1; p <= n; p++ {
		id := sim.ProcID(p)
		eng := rb.New(id, func(sim.Context, rb.Accept) { accepted++ })
		var onInit func(sim.Context)
		if id == 1 {
			onInit = func(ctx sim.Context) { eng.Broadcast(ctx, tag, []byte("v")) }
		}
		node := testutil.NewNode(id, onInit, func(ctx sim.Context, m sim.Message) {
			eng.Handle(ctx, m)
		})
		_ = nw.Register(node)
	}
	_, _ = nw.Run(50_000_000)
	st := nw.Stats()
	return st.Sent, st.TotalBytes()
}

// E6 — resilience comparison: the paper's protocol at full corruption
// budget versus the baselines' failure modes.
func E6(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E6 — resilience: ours at n=3t+1 vs baseline failure modes",
		"protocol", "n", "t", "condition", "runs", "decided", "agreed")

	runs := scale.pick(3, 10)

	classify := func(res *svssba.Result, err error) runner.Classification {
		if err != nil || !res.AllDecided {
			return runner.Classification{}
		}
		if res.Agreed {
			return runner.Count("decided", "agreed")
		}
		return runner.Count("decided")
	}

	var trials []runner.Trial
	// Ours at the optimal bound with a Byzantine process.
	for seed := 0; seed < runs; seed++ {
		trials = append(trials, runner.Agreement("adh", svssba.Config{
			N: 4, Seed: int64(6000 + seed),
			Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultVoteEquivocate}},
		}, classify))
	}
	// Ben-Or within its own bound (n > 5t) works...
	for seed := 0; seed < runs; seed++ {
		trials = append(trials, runner.Agreement("benor-in", svssba.Config{
			N: 7, T: 1, Seed: int64(6100 + seed), Protocol: svssba.ProtocolBenOr,
		}, classify))
	}
	// ...but its resilience is not optimal: at t = floor((n-1)/3) = 2 the
	// protocol's thresholds stall on split inputs with a crash.
	for seed := 0; seed < runs; seed++ {
		trials = append(trials, runner.Agreement("benor-beyond", svssba.Config{
			N: 7, T: 2, Seed: int64(6200 + seed), Protocol: svssba.ProtocolBenOr,
			Faults:   []svssba.Fault{{Proc: 7, Kind: svssba.FaultCrash}, {Proc: 6, Kind: svssba.FaultCrash}},
			MaxSteps: 30_000_000,
		}, classify))
	}
	// The ε-coin protocol is not almost-surely terminating: stuck-run
	// frequency tracks 1-(1-ε)^rounds.
	epsVals := []float64{0.0, 0.25, 1.0}
	for _, eps := range epsVals {
		for seed := 0; seed < runs; seed++ {
			trials = append(trials, runner.Agreement(fmt.Sprintf("eps=%.2f", eps), svssba.Config{
				N: 4, Seed: int64(6300 + seed), Protocol: svssba.ProtocolEpsCoin,
				Eps: eps, MaxSteps: 30_000_000,
			}, classify))
		}
	}
	sum := scale.run(trials)

	adh := sum.Group("adh")
	tb.Add("adh", 4, 1, "n=3t+1, byzantine", runs,
		frac(adh.Count("decided"), runs), frac(adh.Count("agreed"), runs))
	bin := sum.Group("benor-in")
	tb.Add("benor", 7, 1, "n>5t (its bound)", runs,
		frac(bin.Count("decided"), runs), frac(bin.Count("agreed"), runs))
	bout := sum.Group("benor-beyond")
	tb.Add("benor", 7, 2, "n=3t+1 (beyond 5t)", runs,
		frac(bout.Count("decided"), runs), frac(bout.Count("agreed"), runs))
	for _, eps := range epsVals {
		g := sum.Group(fmt.Sprintf("eps=%.2f", eps))
		tb.Add("epscoin", 4, 1, fmt.Sprintf("eps=%.2f", eps), runs,
			frac(g.Count("decided"), runs), "-")
	}
	return tb
}

// E9 — decision latency in virtual time under random network delays.
func E9(scale Scale) *trace.Table {
	tb := trace.NewTable(
		"E9 — virtual-time latency under exponential delays (n=4)",
		"mean_delay", "runs", "vtime_mean", "vtime_p90", "rounds_mean")
	runs := scale.pick(2, 8)
	means := []int64{10, 50, 200}

	classify := func(res *svssba.Result, err error) runner.Classification {
		if err != nil || !res.AllDecided {
			return runner.Classification{}
		}
		return runner.Classification{Values: map[string]float64{
			"vt":     float64(res.VirtualTime),
			"rounds": float64(res.MaxRound),
		}}
	}

	var trials []runner.Trial
	for _, mean := range means {
		for seed := 0; seed < runs; seed++ {
			trials = append(trials, runner.Agreement(fmt.Sprintf("mean=%d", mean), svssba.Config{
				N: 4, Seed: int64(9000 + seed),
				Scheduler: svssba.SchedDelayExp,
				DelayMean: mean,
			}, classify))
		}
	}
	sum := scale.run(trials)

	for _, mean := range means {
		g := sum.Group(fmt.Sprintf("mean=%d", mean))
		vt, rounds := g.Series("vt"), g.Series("rounds")
		tb.Add(mean, runs, vt.Mean(), vt.Percentile(90), rounds.Mean())
	}
	return tb
}

// E10 — adversarial scenario matrix: schedulers × behaviours × scales,
// agreement/validity/termination invariants checked on every cell (the
// scenario package's harness, surfaced as a reproduction table).
func E10(scale Scale) *trace.Table {
	m := &scenario.Matrix{
		Schedulers: scenario.DefaultSchedulers(),
		Behaviors:  scenario.DefaultBehaviors(),
		Scales:     []scenario.Scale{{Name: "n4", N: 4, T: 1}},
		Seeds:      []int64{1000, 1001},
	}
	if scale.Quick {
		m.Schedulers = []scenario.Scheduler{
			{Name: "random", Kind: svssba.SchedRandom},
			{Name: "partition", Kind: svssba.SchedPartition, HealAt: 2000},
		}
		m.Behaviors = []scenario.Behavior{
			scenario.NoFault(),
			scenario.SingleFault("coin-bias", svssba.FaultCoinBias),
			scenario.Unanimous1VoteFlip(),
		}
		m.Seeds = []int64{1000}
	}
	workers := scale.Workers
	if workers < 1 {
		workers = 1
	}
	return scenario.Run(m, workers).Table()
}

func frac(hit, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", hit, total)
}
