package main

// metricDef names one reported metric. BENCHMARK.json is generated from
// these tables (`-spec`) and compared with them by `-check`, so a name,
// unit or bound is defined once.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// gatedDef is an end-to-end metric: a metricDef plus the share of the
// parent's median by which it may worsen before a change is rejected.
type gatedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

// workloadDef is one workload and the one-line reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names, in BENCHMARK.json order.
const (
	wlSvcChan = "svc_chan_64b"
	wlSvcTCP  = "svc_tcp_64k"
	wlSvcOpen = "svc_open_crash1"
	wlSim     = "sim_n7"
)

var workloads = []workloadDef{
	{wlSvcChan, "closed loop, chan mesh, 64 B values: transport is free, so the protocol engines, coin pool, codec and node loop do the work"},
	{wlSvcTCP, "closed loop, loopback TCP, 64 KiB values, 2 lanes: value-carrying RB echoes, codec, framing, syscalls and the lane runtime dominate"},
	{wlSvcOpen, "open loop at 8 submissions/s (about 40 % of capacity) with node 4 down: every quorum needs all live nodes and little coalesces"},
	{wlSim, "deterministic simulator, n=7/t=2, classic dealing, Byzantine cells: engines at larger n and shunning; bypasses node, transport, acs, pool"},
}

var workloadNames = func() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}()

// runSeconds is the timed window BENCHMARK.json asks the driver for.
const runSeconds = 25

// gated are the six metrics every workload reports untraced, with the
// bounds derived from the A/A runs in README.md.
var gated = []gatedDef{
	{metricDef{"decisions_per_s", "1/s", "higher"}, 0.25},
	{metricDef{"latency_p50_ms", "ms", "lower"}, 0.25},
	{metricDef{"cpu_ms_per_decision", "ms", "lower"}, 0.25},
	{metricDef{"wire_kb_per_decision", "kB", "lower"}, 0.16},
	{metricDef{"heap_live_mb", "MB", "lower"}, 0.12},
	{metricDef{"setup_s", "s", "lower"}, 0.25},
}

// endToEnd is gated without the bounds.
var endToEnd = func() []metricDef {
	defs := make([]metricDef, len(gated))
	for i, g := range gated {
		defs[i] = g.metricDef
	}
	return defs
}()

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []gatedDef    `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func currentSpec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   gated,
		PerLayer:   perLayer,
	}
}

// ledgerLayers are the protocol layers Stats().ByLayer attributes
// payloads to (the payload kind's prefix); instanceLayers the ones that
// count created instances.
var (
	ledgerLayers   = []string{"rb", "wrb", "mw", "svss", "aba", "pack"}
	instanceLayers = []string{"rb", "wrb", "mw", "svss"}
)

// perLayer are the ungated metrics of a traced run. A metric that does
// not apply to a workload (pool counters on the simulator, simulator
// counters on a service workload) is reported as 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Coin luck and coin cost.
		{"aba.coin_rounds_per_decision", "count", "lower"},
		{"coin.cpu_ms_per_round", "ms", "lower"},
		{"coin.wire_kb_per_round", "kB", "lower"},
		{"coin.rounds_per_s", "1/s", "higher"},
	}
	// Message ledger per decision.
	for _, l := range ledgerLayers {
		defs = append(defs,
			metricDef{l + ".payloads_per_decision", "count", "lower"},
			metricDef{l + ".kb_per_decision", "kB", "lower"})
	}
	for _, l := range instanceLayers {
		defs = append(defs, metricDef{l + ".instances_per_decision", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"coinpool.handouts_per_decision", "count", "lower"},
		metricDef{"coinpool.refills_per_decision", "count", "lower"},
		metricDef{"coinpool.fallback_round_share", "share", "lower"},

		metricDef{"acs.value_cut_share", "share", "lower"},
		metricDef{"acs.values_per_decision", "count", "higher"},
		metricDef{"acs.peak_in_flight", "count", "lower"},

		metricDef{"node.frames_per_decision", "count", "lower"},
		metricDef{"node.payloads_per_frame", "count", "higher"},
		metricDef{"node.ring_waits", "count", "lower"},
		metricDef{"node.ring_high_water", "count", "lower"},
		metricDef{"node.late_payloads_dropped", "1/decision", "lower"},
		metricDef{"node.submit_call_us", "us", "lower"},
		metricDef{"transport.frame_kb_mean", "kB", "higher"},

		metricDef{"runtime.alloc_mb_per_decision", "MB", "lower"},
		metricDef{"runtime.gc_cycles_per_decision", "count", "lower"},
		metricDef{"runtime.gc_cpu_share", "share", "lower"},

		metricDef{"svc.latency_p95_ms", "ms", "lower"},
		metricDef{"svc.latency_max_ms", "ms", "lower"},
		metricDef{"svc.open_loop_lag_p95_ms", "ms", "lower"},
		metricDef{"sim.us_per_delivery", "us", "lower"},
		metricDef{"sim.deliveries_per_decision", "count", "lower"},
		metricDef{"sim.cell_ms_fault_free", "ms", "lower"},
		metricDef{"sim.cell_ms_byzantine", "ms", "lower"},

		// Phase split of a session, medians over sessions.
		metricDef{"phase.open_to_proposal_ms", "ms", "lower"},
		metricDef{"phase.proposal_to_share_ms", "ms", "lower"},
		metricDef{"phase.share_to_first_coin_ms", "ms", "lower"},
		metricDef{"phase.aba_round_ms", "ms", "lower"},
		metricDef{"phase.last_round_to_decide_ms", "ms", "lower"},
		metricDef{"phase.decide_to_retire_ms", "ms", "lower"},
		metricDef{"phase.coin_wait_share", "share", "lower"},

		// Layer probes: fixed inputs, fixed iteration counts, median of 5.
		metricDef{"field.mul_ns", "ns", "lower"},
		metricDef{"field.inv_ns", "ns", "lower"},
		metricDef{"poly.interpolate_t2_ns", "ns", "lower"},
		metricDef{"proto.encode_ns_per_payload", "ns", "lower"},
		metricDef{"proto.decode_ns_per_payload", "ns", "lower"},
		metricDef{"proto.batch_encode_ns_per_frame", "ns", "lower"},
		metricDef{"proto.scoped_shallow_decode_ns", "ns", "lower"},
		metricDef{"proto.allocs_per_frame", "count", "lower"},
		metricDef{"rb.handle_ns", "ns", "lower"},
		metricDef{"rb.broadcast_64k_us", "us", "lower"},
		metricDef{"wrb.handle_ns", "ns", "lower"},
		metricDef{"mwsvss.deliver_echo_ns", "ns", "lower"},
		metricDef{"svss.share_recon_n4_ms", "ms", "lower"},
		metricDef{"coin.round_n4_ms", "ms", "lower"},
		metricDef{"coin.round_n7_ms", "ms", "lower"},
		metricDef{"aba.ideal_coin_n4_ms", "ms", "lower"},
		metricDef{"core.pack_roundtrip_ns", "ns", "lower"},
		metricDef{"transport.chan_rtt_us", "us", "lower"},
		metricDef{"transport.tcp_rtt_us", "us", "lower"},
		metricDef{"transport.tcp_64k_mb_per_s", "MB/s", "higher"},
		metricDef{"obs.record_ns", "ns", "lower"},

		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	return defs
}
