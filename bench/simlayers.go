package main

import (
	"fmt"
	"strings"

	"svssba"
)

// simLedgerMaxSteps caps the whole-agreement run the simulator ledger
// is cut from just past one coin round of deliveries (~4 s): the run is
// used for its message mix and instances per message, never for time,
// and the mix does not depend on where the run is cut, so a truncated
// run serves as well as a decided one.
const simLedgerMaxSteps = 150_000

// simLayers adds the per-layer metrics of a traced simulator run (and
// returns how many of its own operations failed — the ledger agreement,
// when it ran to a decision, must satisfy the agreement contract): the
// layer probes, the per-cell accounting, and a ledger cut from one
// whole n=7 agreement (svssba.Run is the only simulator entry point
// that exports per-kind message counts and created-instance counts).
// A coin round is this workload's decision, so "per decision" is "per
// coin round" throughout.
func simLayers(o runOpts, p *simPass, rep *report) (failed int, err error) {
	if err := runProbes(o.smoke, p.spans, rep.values); err != nil {
		return 0, err
	}
	m := rep.values
	cells := float64(len(p.cells))
	var msgs, bytes, wallMs float64
	var ff, byz []float64
	for _, c := range p.cells {
		msgs += float64(c.messages)
		bytes += float64(c.bytes)
		wallMs += c.wallMs
		if c.byzantine {
			byz = append(byz, c.wallMs)
		} else {
			ff = append(ff, c.wallMs)
		}
	}
	m["aba.coin_rounds_per_decision"] = 1
	m["coin.cpu_ms_per_round"] = ratio(p.cpuMs, cells)
	m["coin.wire_kb_per_round"] = ratio(bytes/1e3, cells)
	m["coin.rounds_per_s"] = ratio(cells, p.wallSecs)
	// RunCoin exports logical payloads sent (CoinResult.Messages), not
	// delivery steps, so "delivery" here is one payload; under wire v2 a
	// scheduler step delivers a pack of about seven of them.
	m["sim.deliveries_per_decision"] = ratio(msgs, cells)
	m["sim.us_per_delivery"] = ratio(wallMs*1e3, msgs)
	m["sim.cell_ms_fault_free"] = orZero(median(ff))
	m["sim.cell_ms_byzantine"] = orZero(median(byz))
	m["runtime.alloc_mb_per_decision"] = ratio(float64(p.rt.allocBytes)/1e6, cells)
	m["runtime.gc_cycles_per_decision"] = ratio(float64(p.rt.gcCycles), cells)
	m["runtime.gc_cpu_share"] = ratio(p.rt.gcCPU, p.rt.totalCPU)

	// Ledger: message mix and instances per coin round of one agreement.
	cfg := svssba.Config{N: simN, T: simT, Seed: o.seed, Wire: "v2", MaxSteps: simLedgerMaxSteps}
	if o.smoke {
		cfg.N, cfg.T = 4, 1
	}
	cfg.Inputs = make([]int, cfg.N)
	for i := range cfg.Inputs {
		cfg.Inputs[i] = 1
	}
	sp := p.spans.begin("sim.ledger_agreement")
	res, err := svssba.Run(cfg)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("ledger agreement: %w", err)
	}
	// The agreement's counts are scaled to this workload's decision (one
	// coin round of the timed cells) by messages: count per message sent
	// in the agreement × messages per timed coin round.
	perDecision := ratio(m["sim.deliveries_per_decision"], float64(res.Messages))
	byLayer := make(map[string]float64)
	for kind, n := range res.MsgsByKind {
		layer := kind
		if i := strings.IndexByte(kind, '/'); i >= 0 {
			layer = kind[:i]
		}
		byLayer[layer] += float64(n)
	}
	for _, l := range ledgerLayers {
		m[l+".payloads_per_decision"] = byLayer[l] * perDecision
		// The simulator result has no per-kind byte counts.
		m[l+".kb_per_decision"] = 0
	}
	m["rb.instances_per_decision"] = float64(res.RBCreated) * perDecision
	m["wrb.instances_per_decision"] = float64(res.WRBCreated) * perDecision
	m["mw.instances_per_decision"] = float64(res.MWCreated) * perDecision
	m["svss.instances_per_decision"] = float64(res.SVSSCreated) * perDecision
	rep.note("ledger agreement: n=%d seed=%d steps=%d messages=%d coin_rounds=%d timed_out=%v decided=%v (counts scaled by %.4f to one timed coin round)",
		cfg.N, cfg.Seed, res.Steps, res.Messages, res.CoinRounds, res.TimedOut, res.AllDecided, perDecision)
	if !res.TimedOut {
		if msg := checkAgreement(res); msg != "" {
			rep.reasons = append(rep.reasons, "ledger agreement: "+msg)
			failed++
		}
	}

	// Service-only layers do not exist in the simulator.
	zeroLayers(m, "coinpool.", "acs.", "node.", "svc.", "phase.", "transport.frame_kb_mean")
	// The simulator has no tracer to arm; the traced run differs from the
	// untraced one only by the benchmark-side spans.
	m["trace.overhead_pct"] = 0
	return failed, reportSpans(o, rep, p.spans)
}
