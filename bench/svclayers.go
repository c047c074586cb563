package main

import (
	"fmt"
	"os"
	"strings"
)

// measureSvcTraced is the -trace 1 run of a service workload: the layer
// probes, then an untraced reference pass and a traced pass, each over
// half of -seconds so the whole run costs about what an untraced run
// does. Per-layer metrics come from the traced pass; trace.overhead_pct
// compares the two passes' decisions_per_s.
func measureSvcTraced(w svcWorkload, o runOpts, rep *report) (attempted, failed int, err error) {
	probeSpans := newSpanLog()
	if err := runProbes(o.smoke, probeSpans, rep.values); err != nil {
		return 0, 0, err
	}

	tm := svcTimingFor(o, o.seconds/2)
	ref, err := runSvcPass(w, tm, o.seed, false)
	if err != nil {
		return 0, 0, fmt.Errorf("reference pass: %w", err)
	}
	refV := verify(ref)
	refS := summarize(ref, refV)
	refE2E := svcEndToEnd(ref, refS)

	p, err := runSvcPass(w, tm, o.seed, true)
	if err != nil {
		return 0, 0, fmt.Errorf("traced pass: %w", err)
	}
	v := verify(p)
	s := summarize(p, v)
	e2e := svcEndToEnd(p, s)
	for k, val := range e2e {
		rep.values[k] = val // printed for reference; not in the result line
	}
	noteSvc(rep, p, s, v)
	rep.note("reference pass (untraced, same seed): decisions_per_s=%.4f latency_p50_ms=%.2f", refE2E["decisions_per_s"], refE2E["latency_p50_ms"])

	for k, val := range svcLayerMetrics(p, s, v) {
		rep.values[k] = val
	}
	rep.values["trace.overhead_pct"] = 100 * ratio(refE2E["decisions_per_s"]-e2e["decisions_per_s"], refE2E["decisions_per_s"])

	var ps phaseSplit
	for _, evs := range p.events {
		ps.add(evs, p.traceLo, p.traceHi)
	}
	pm, omitted := ps.metrics()
	for k, val := range pm {
		rep.values[k] = val
	}
	rep.note("phase split: %d (node, session) samples, %d coin events, %d trace events lost to ring wrap", ps.sessions, ps.coinEvents, p.lostEvents)
	if len(omitted) > 0 {
		rep.note("phases no event pair bounded on this run (reported as 0): %v", omitted)
	}

	if err := reportSpans(o, rep, probeSpans, p.spans); err != nil {
		return 0, 0, err
	}

	rep.reasons = append(refV.reasons, v.reasons...)
	return refV.attempted + v.attempted, refV.failed + v.failed, nil
}

// reportSpans summarises the benchmark-side spans in the report and,
// with -spans, writes them all out.
func reportSpans(o runOpts, rep *report, logs ...*spanLog) error {
	for _, l := range logs {
		for _, sum := range l.summarize() {
			rep.note("span %-32s count=%-6d total=%.1fms self=%.1fms median=%.1fus", sum.Name, sum.Count, float64(sum.TotalUs)/1e3, float64(sum.SelfUs)/1e3, sum.MedianUs)
		}
	}
	if o.spanFile == "" {
		return nil
	}
	f, err := os.Create(o.spanFile)
	if err != nil {
		return err
	}
	for _, l := range logs {
		if err := l.writeJSONL(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// zeroLayers reports as 0 every per-layer metric whose name starts with
// one of the prefixes: layers that do not exist for the workload.
func zeroLayers(m map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				m[d.Name] = 0
			}
		}
	}
}

// svcLayerMetrics turns the traced pass's window deltas into the
// per-layer ledger. Sums run over the live nodes (cluster-wide cost per
// decision), matching wire_kb_per_decision.
func svcLayerMetrics(p *svcPass, s svcSummary, v *svcVerdict) map[string]float64 {
	m := make(map[string]float64)
	dec := s.decisions

	m["aba.coin_rounds_per_decision"] = ratio(s.coinRounds, dec)
	m["coin.cpu_ms_per_round"] = ratio(s.cpuMs, s.coinRounds)
	m["coin.wire_kb_per_round"] = ratio(s.wireBytes/1e3, s.coinRounds)
	m["coin.rounds_per_s"] = ratio(s.coinRounds, s.windowSecs)

	for _, l := range ledgerLayers {
		d := s.delta.layers[l]
		m[l+".payloads_per_decision"] = ratio(float64(d.payloads), dec)
		m[l+".kb_per_decision"] = ratio(float64(d.bytes)/1e3, dec)
	}
	// Instance counts cover the whole pass (the stack log has no clock)
	// and only the sampled sessions, so they are divided by the sampled
	// sessions the pass decided.
	sampled := 0
	for _, sv := range v.sessions {
		if stackSampled(sv.sid) {
			sampled++
		}
	}
	for i, l := range instanceLayers {
		m[l+".instances_per_decision"] = ratio(float64(p.created[i]), float64(sampled))
	}

	m["coinpool.handouts_per_decision"] = ratio(float64(s.delta.pool.Handouts), dec)
	m["coinpool.refills_per_decision"] = ratio(float64(s.delta.pool.Refills), dec)

	m["acs.value_cut_share"] = ratio(float64(s.cutInWin), float64(s.submitted))
	m["acs.values_per_decision"] = ratio(s.values, s.refDecisions)
	m["acs.peak_in_flight"] = float64(p.peak)

	m["node.frames_per_decision"] = ratio(float64(s.delta.sentFrames), dec)
	m["node.payloads_per_frame"] = ratio(float64(s.delta.sentPayloads), float64(s.delta.sentFrames))
	m["node.ring_waits"] = float64(s.delta.ringWaits)
	m["node.ring_high_water"] = float64(s.delta.ringHighWater)
	m["node.late_payloads_dropped"] = ratio(float64(s.delta.latePayloads), dec)
	m["node.submit_call_us"] = p.spans.medianUs("node.submit")
	m["transport.frame_kb_mean"] = ratio(float64(s.delta.sentFrameBytes)/1e3, float64(s.delta.sentFrames))

	m["runtime.alloc_mb_per_decision"] = ratio(float64(s.rt.allocBytes)/1e6, dec)
	m["runtime.gc_cycles_per_decision"] = ratio(float64(s.rt.gcCycles), dec)
	m["runtime.gc_cpu_share"] = ratio(s.rt.gcCPU, s.rt.totalCPU)

	m["svc.latency_p95_ms"] = orZero(percentile(s.latencies, 0.95))
	m["svc.latency_max_ms"] = orZero(percentile(s.latencies, 1))
	m["svc.open_loop_lag_p95_ms"] = 0
	if p.w.openRate > 0 {
		m["svc.open_loop_lag_p95_ms"] = orZero(percentile(s.lags, 0.95))
	}

	zeroLayers(m, "sim.")
	return m
}
