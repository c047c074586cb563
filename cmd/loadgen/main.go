// Command loadgen drives sustained agreement-as-a-service traffic: it
// boots an n-node service cluster (svssba.StartService), keeps every
// node's submit window full of fresh values for the run duration, then
// drains to quiescence and verifies the service contract — every
// session's common subset identical on every node with at least n−t
// members, and all per-session protocol state retired back to zero.
// It reports decisions/sec, p50/p95/p99 session latency and the
// distribution of real coin flips per session (0 for a session nobody
// contested; otherwise the luck number behind the latency tail).
//
// Observability: -http serves live metric snapshots, protocol round
// traces and pprof; -report prints a periodic one-line status;
// -trace/-tracefile capture per-node round traces to JSONL.
//
// Soak mode (-soak) arms the watchdog: the run is sampled every
// -soakinterval, and the process exits nonzero if throughput sags below
// -flatness of its first-half rate, protocol state grows without bound
// (or past -statebudget), the sessions the drivers remember grow without
// bound, or any session exceeds -maxlat / -maxcoin.
//
// Examples:
//
//	loadgen -n 4 -duration 30s
//	loadgen -n 4 -window 20 -minpeak 20 -duration 60s -json
//	loadgen -n 4 -http 127.0.0.1:8780 -report 5s -duration 60s
//	loadgen -n 4 -soak -duration 10m -maxlat 2m
//
// The process exits nonzero if any contract or watchdog check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"svssba"
	"svssba/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the machine-readable run summary (-json).
type report struct {
	N            int     `json:"n"`
	T            int     `json:"t"`
	Transport    string  `json:"transport"`
	Window       int     `json:"window"`
	ValueBytes   int     `json:"value_bytes"`
	DurationSecs float64 `json:"duration_secs"`
	DrainSecs    float64 `json:"drain_secs"`
	Pool         bool    `json:"pool"`
	PoolRounds   int     `json:"pool_rounds,omitempty"`

	Sessions int `json:"sessions"`
	// DecisionsSec counts only sessions that completed during the
	// submission phase; DrainCompleted is the tail that finished during
	// the drain. Crediting the drain tail to the rate would overstate
	// sustained throughput (the window is no longer being refilled), and
	// pooled runs — which front-load dealing and drain a deeper in-flight
	// set — would be the most over-credited.
	DrainCompleted int     `json:"drain_completed"`
	DecisionsSec   float64 `json:"decisions_per_sec"`
	P50Ms          float64 `json:"latency_p50_ms"`
	P95Ms          float64 `json:"latency_p95_ms"`
	P99Ms          float64 `json:"latency_p99_ms"`
	MaxInFlight    []int   `json:"max_in_flight_per_node"`
	PeakSessions   int     `json:"peak_concurrent_sessions"`

	// Real-coin-flips-per-session distribution (prefix rounds flip
	// nothing and count 0), node-1 view (every honest
	// node observes each agreement's flips; the per-node numbers agree
	// up to scheduling). The histogram is the fixed-bucket snapshot fed
	// by every node's decisions, so it is the cross-node view.
	CoinMean float64                `json:"coin_rounds_mean"`
	CoinMax  uint64                 `json:"coin_rounds_max"`
	CoinP50  float64                `json:"coin_rounds_p50"`
	CoinP95  float64                `json:"coin_rounds_p95"`
	CoinHist *obs.HistogramSnapshot `json:"coin_rounds_hist,omitempty"`

	SentFrames int64 `json:"sent_frames"`
	SentBytes  int64 `json:"sent_frame_bytes"`
	RecvFrames int64 `json:"recv_frames"`

	// SessionsRemembered sums what the nodes' drivers still hold after the
	// drain: live session records plus completed sessions not yet folded
	// into their low-water marks.
	SessionsRemembered int `json:"sessions_remembered"`

	LatePayloadsDropped int64 `json:"late_payloads_dropped"`
	OversizedDropped    int64 `json:"oversized_dropped"`
	DroppedDecisions    int   `json:"dropped_decisions"`

	// Proposal dissemination, summed across nodes: values pushed, or
	// served by pull, to peers that had not echoed them (0 on a run where
	// nobody was slow), the pulls sent for values accepted before they
	// arrived, and received values refused or freed undelivered — pushes
	// that arrive after a session completed, while its plane is still
	// open, included.
	ValueForwards          int64 `json:"value_forwards"`
	ValuePulls             int64 `json:"value_pulls"`
	ValueCandidatesDropped int64 `json:"value_candidates_dropped"`

	// Coin-pool counters, summed across nodes (pooled runs only).
	PoolRefills        int64 `json:"pool_refills,omitempty"`
	PoolHandouts       int64 `json:"pool_handouts,omitempty"`
	PoolDoubleHandouts int64 `json:"pool_double_handouts,omitempty"`
	PoolLeakedSupplies int64 `json:"pool_leaked_supplies,omitempty"`

	BaselineOK bool `json:"baseline_ok"`
	SubsetsOK  bool `json:"subsets_ok"`

	Soak *soakReport `json:"soak,omitempty"`
}

// soakReport is the watchdog's verdict (-soak).
type soakReport struct {
	Samples        int     `json:"samples"`
	RateFirstHalf  float64 `json:"rate_first_half"`
	RateSecondHalf float64 `json:"rate_second_half"`
	FlatnessOK     bool    `json:"flatness_ok"`
	StateMax       int     `json:"state_max"`
	BoundedOK      bool    `json:"bounded_ok"`
	// RememberedMax is the largest summed Remembered the sampler saw;
	// RememberedOK holds while it stays bounded (StateMax's relative rule).
	RememberedMax int  `json:"remembered_max"`
	RememberedOK  bool `json:"remembered_ok"`
	// Per-session budget violations (0 when the budget flag is unset).
	LatencyViolations int `json:"latency_violations"`
	CoinViolations    int `json:"coin_violations"`
}

// soakSample is one watchdog observation during the submission phase.
type soakSample struct {
	at         time.Time
	decisions  int
	state      int
	remembered int
}

func run() error {
	var (
		n          = flag.Int("n", 4, "number of nodes")
		t          = flag.Int("t", 0, "resilience bound (default (n-1)/3)")
		seed       = flag.Int64("seed", 1, "seed for node randomness and generated values")
		transportK = flag.String("transport", "chan", "chan | tcp")
		window     = flag.Int("window", 8, "values each node keeps queued or in flight, and its admission window (it initiates while < 4x this many sessions are in flight)")
		pool       = flag.Bool("pool", false, "amortize coin setup through the shared dealing pool (batched MW-SVSS)")
		poolRounds = flag.Int("poolrounds", 0, "coin-round coverage per pooled dealing (default 4)")
		valBytes   = flag.Int("bytes", 64, "size of each submitted value")
		duration   = flag.Duration("duration", 30*time.Second, "submission phase length")
		drain      = flag.Duration("drain", 2*time.Minute, "post-submission drain budget")
		minPeak    = flag.Int("minpeak", 0, "fail unless some node's concurrent-session high-water mark reaches this")
		minRate    = flag.Float64("minrate", 0, "fail unless decisions/sec exceeds this")
		asJSON     = flag.Bool("json", false, "emit the JSON report instead of the text summary")
		verbose    = flag.Bool("v", false, "print per-node stats lines")

		httpAddr  = flag.String("http", "", "serve /metrics, /trace and /debug/pprof on this address")
		reportInt = flag.Duration("report", 0, "periodic one-line status interval (0 = off; -soak defaults to the soak interval)")
		traceCap  = flag.Int("trace", 0, "per-node protocol round tracer capacity (0 = off; -http and -tracefile default to 4096)")
		traceFile = flag.String("tracefile", "", "write all nodes' round traces as JSONL to this file at exit")

		soak     = flag.Bool("soak", false, "arm the soak watchdog (flatness, boundedness, per-session budgets)")
		soakInt  = flag.Duration("soakinterval", 5*time.Second, "watchdog sampling interval")
		maxLat   = flag.Duration("maxlat", 0, "flag sessions slower than this (0 = off)")
		maxCoin  = flag.Uint64("maxcoin", 0, "flag sessions with more real coin flips than this (0 = off)")
		stateCap = flag.Int("statebudget", 0, "hard cap on summed live protocol state (0 = relative-growth check)")
		flatness = flag.Float64("flatness", 0.5, "fail if second-half decisions/sec falls below this fraction of first-half")
	)
	flag.Parse()

	if *traceCap == 0 && (*httpAddr != "" || *traceFile != "") {
		*traceCap = 4096
	}
	if *soak && *reportInt == 0 {
		*reportInt = *soakInt
	}

	reg := obs.NewRegistry()
	cl, err := svssba.StartService(svssba.ServiceConfig{
		N:          *n,
		T:          *t,
		Seed:       *seed,
		Transport:  svssba.TransportKind(*transportK),
		Window:     *window,
		Pool:       *pool,
		PoolRounds: *poolRounds,
		// The verifier must see every decision; size the queue so the
		// collector goroutines never race the drop-oldest bound.
		DecisionBuffer: 1 << 20,
		Metrics:        reg,
		TraceCap:       *traceCap,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, reg, cl.Tracers()...)
		if err != nil {
			return fmt.Errorf("http endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: observability endpoint on http://%s\n", srv.Addr())
	}
	if *reportInt > 0 {
		var meter obs.Meter
		rep := obs.StartReporter(os.Stderr, *reportInt, func() string {
			s := reg.Snapshot()
			dec := s.Counters["service.decisions"]
			rate := meter.Tick(dec)
			lat := s.Histograms["service.session_latency_ms"]
			coin := s.Histograms["service.session_coin_rounds"]
			var scopes, queue int64
			for name, v := range s.Gauges {
				if matchSuffix(name, ".scopes_live") {
					scopes += v
				}
				if matchSuffix(name, ".queue_depth") {
					queue += v
				}
			}
			return fmt.Sprintf("dec=%d (%.1f/s) lat(ms) p50/p95/p99=%.0f/%.0f/%.0f coin p50/p95=%.0f/%.0f scopes=%d queue=%d",
				dec, rate,
				lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99),
				coin.Quantile(0.50), coin.Quantile(0.95), scopes, queue)
		})
		defer rep.Stop()
	}

	// Collect every node's decision stream concurrently.
	var (
		mu   sync.Mutex
		decs = make([]map[uint64]svssba.ServiceDecision, *n+1)
		lats []time.Duration
		wg   sync.WaitGroup
	)
	for i := 1; i <= *n; i++ {
		decs[i] = make(map[uint64]svssba.ServiceDecision)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for d := range cl.Node(i).Decisions() {
				mu.Lock()
				decs[i][d.Session] = d
				lats = append(lats, d.Elapsed)
				mu.Unlock()
			}
		}(i)
	}

	// Soak watchdog sampler: decisions, summed live protocol state and
	// summed remembered sessions at a fixed cadence through the
	// submission phase.
	var (
		samples    []soakSample
		samplerWG  sync.WaitGroup
		samplerEnd chan struct{}
	)
	if *soak {
		samplerEnd = make(chan struct{})
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(*soakInt)
			defer tick.Stop()
			for {
				select {
				case <-samplerEnd:
					return
				case at := <-tick.C:
					state, remembered := 0, 0
					for i := 1; i <= *n; i++ {
						if c, ok := cl.Node(i).Counts(); ok {
							state += c.State.Total()
						}
						remembered += cl.Node(i).Remembered()
					}
					samples = append(samples, soakSample{
						at:         at,
						decisions:  cl.Node(1).Completed(),
						state:      state,
						remembered: remembered,
					})
				}
			}
		}()
	}

	// Submission phase: keep every node's window topped up with fresh
	// values so the service runs at its configured concurrency.
	rnd := rand.New(rand.NewSource(*seed))
	value := func() []byte {
		b := make([]byte, *valBytes)
		rnd.Read(b)
		return b
	}
	start := time.Now()
	stop := start.Add(*duration)
	for time.Now().Before(stop) {
		for i := 1; i <= *n; i++ {
			nd := cl.Node(i)
			for nd.QueueLen()+nd.InFlight() < *window {
				if err := nd.Submit(value()); err != nil {
					return fmt.Errorf("node %d: submit: %v", i, err)
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	submitted := time.Since(start)
	// Decisions/sec is measured over the submission phase only: snapshot
	// the completed count now, before the drain lets the in-flight tail
	// finish without competition for the window.
	liveTotal := cl.Node(1).Completed()
	if *soak {
		close(samplerEnd)
		samplerWG.Wait()
	}

	// Drain phase: queues empty, nothing in flight, every node converged
	// on the same completed count.
	deadline := time.Now().Add(*drain)
	for {
		quiet := true
		completed := cl.Node(1).Completed()
		for i := 1; i <= *n; i++ {
			nd := cl.Node(i)
			if nd.QueueLen() != 0 || nd.InFlight() != 0 || nd.Completed() != completed {
				quiet = false
				break
			}
		}
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			for i := 1; i <= *n; i++ {
				nd := cl.Node(i)
				fmt.Fprintf(os.Stderr, "  node %d: queue=%d inflight=%d completed=%d\n",
					i, nd.QueueLen(), nd.InFlight(), nd.Completed())
			}
			return fmt.Errorf("drain: service did not quiesce within %v", *drain)
		}
		time.Sleep(10 * time.Millisecond)
	}
	drained := time.Since(start) - submitted
	total := cl.Node(1).Completed()

	// Per-session retirement: live scopes and protocol state must return
	// to zero on every node.
	rep := report{
		N: *n, T: cl.T(), Transport: *transportK,
		Window: *window, ValueBytes: *valBytes,
		Pool: *pool, PoolRounds: *poolRounds,
		DurationSecs: submitted.Seconds(), DrainSecs: drained.Seconds(),
		Sessions: total, DrainCompleted: total - liveTotal,
		BaselineOK: true, SubsetsOK: true,
	}
	baselineDeadline := time.Now().Add(*drain)
	for {
		ok := true
		for i := 1; i <= *n; i++ {
			c, isSvc := cl.Node(i).Counts()
			if !isSvc {
				return fmt.Errorf("node %d: not a service node", i)
			}
			if c.Live != 0 || c.State.Total() != 0 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(baselineDeadline) {
			rep.BaselineOK = false
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		for _, tr := range cl.Tracers() {
			if err := tr.WriteJSONL(f); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// Let the collectors finish, then verify the cross-node contract.
	cl.Close()
	wg.Wait()

	for sid, ref := range decs[1] {
		if len(ref.Members) < *n-cl.T() {
			fmt.Fprintf(os.Stderr, "  session %d: subset %v smaller than n-t=%d\n", sid, ref.Members, *n-cl.T())
			rep.SubsetsOK = false
		}
		for i := 2; i <= *n; i++ {
			d, ok := decs[i][sid]
			if !ok {
				fmt.Fprintf(os.Stderr, "  session %d: missing on node %d\n", sid, i)
				rep.SubsetsOK = false
				continue
			}
			if fmt.Sprint(d.Members) != fmt.Sprint(ref.Members) {
				fmt.Fprintf(os.Stderr, "  session %d: node %d members %v != node 1 members %v\n", sid, i, d.Members, ref.Members)
				rep.SubsetsOK = false
				continue
			}
			for k := range ref.Values {
				if !bytes.Equal(d.Values[k], ref.Values[k]) {
					fmt.Fprintf(os.Stderr, "  session %d member %d: value mismatch node %d vs node 1\n", sid, ref.Members[k], i)
					rep.SubsetsOK = false
				}
			}
		}
	}
	for i := 2; i <= *n; i++ {
		if len(decs[i]) != len(decs[1]) {
			fmt.Fprintf(os.Stderr, "  node %d decided %d sessions, node 1 decided %d\n", i, len(decs[i]), len(decs[1]))
			rep.SubsetsOK = false
		}
	}
	if total != len(decs[1]) {
		fmt.Fprintf(os.Stderr, "  completed=%d but node 1 streamed %d decisions\n", total, len(decs[1]))
		rep.SubsetsOK = false
	}

	rep.DecisionsSec = float64(liveTotal) / submitted.Seconds()
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	rep.P50Ms, rep.P95Ms, rep.P99Ms = pct(0.50), pct(0.95), pct(0.99)

	// Coin-rounds-per-session: node-1 mean/max plus the registry's
	// cross-node fixed-bucket histogram (fed by every node's push path).
	var coinSum uint64
	for _, d := range decs[1] {
		coinSum += d.CoinRounds
		if d.CoinRounds > rep.CoinMax {
			rep.CoinMax = d.CoinRounds
		}
	}
	if len(decs[1]) > 0 {
		rep.CoinMean = float64(coinSum) / float64(len(decs[1]))
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["service.session_coin_rounds"]; ok && h.Count > 0 {
		rep.CoinP50, rep.CoinP95 = h.Quantile(0.50), h.Quantile(0.95)
		rep.CoinHist = &h
	}

	for i := 1; i <= *n; i++ {
		nd := cl.Node(i)
		peak := nd.MaxInFlight()
		rep.MaxInFlight = append(rep.MaxInFlight, peak)
		if peak > rep.PeakSessions {
			rep.PeakSessions = peak
		}
		rep.DroppedDecisions += nd.DroppedDecisions()
		rep.SessionsRemembered += nd.Remembered()
		rep.ValueForwards += nd.ValueForwards()
		rep.ValuePulls += nd.ValuePulls()
		rep.ValueCandidatesDropped += nd.ValueCandidatesDropped()
		st := nd.Stats()
		rep.SentFrames += st.SentFrames
		rep.SentBytes += st.SentFrameBytes
		rep.RecvFrames += st.RecvFrames
		rep.LatePayloadsDropped += st.DroppedLatePayloads
		rep.OversizedDropped += st.OversizedDropped
		if ps, ok := nd.PoolStats(); ok {
			rep.PoolRefills += ps.Refills
			rep.PoolHandouts += ps.Handouts
			rep.PoolDoubleHandouts += ps.DoubleHandouts
			rep.PoolLeakedSupplies += ps.Live
		}
		if errs := nd.Errs(); len(errs) > 0 {
			return fmt.Errorf("node %d: runtime errors (%d), first: %v", i, len(errs), errs[0])
		}
		if *verbose {
			fmt.Printf("node %d: completed=%d peak=%d sentFrames=%d recvFrames=%d latePayloads=%d\n",
				i, nd.Completed(), peak, st.SentFrames, st.RecvFrames, st.DroppedLatePayloads)
		}
	}

	// Soak verdict.
	var soakErr error
	if *soak {
		sr := evalSoak(samples, *flatness, *stateCap)
		for _, d := range decs[1] {
			if *maxLat > 0 && d.Elapsed > *maxLat {
				sr.LatencyViolations++
				fmt.Fprintf(os.Stderr, "  soak: session %d latency %v exceeds budget %v\n", d.Session, d.Elapsed.Round(time.Millisecond), *maxLat)
			}
			if *maxCoin > 0 && d.CoinRounds > *maxCoin {
				sr.CoinViolations++
				fmt.Fprintf(os.Stderr, "  soak: session %d coin rounds %d exceed budget %d\n", d.Session, d.CoinRounds, *maxCoin)
			}
		}
		rep.Soak = &sr
		switch {
		case !sr.FlatnessOK:
			soakErr = fmt.Errorf("soak: throughput sagged: second-half %.2f/s < %.2f × first-half %.2f/s",
				sr.RateSecondHalf, *flatness, sr.RateFirstHalf)
		case !sr.BoundedOK:
			soakErr = fmt.Errorf("soak: protocol state not bounded (max %d live instances)", sr.StateMax)
		case !sr.RememberedOK:
			soakErr = fmt.Errorf("soak: remembered sessions not bounded (max %d)", sr.RememberedMax)
		case sr.LatencyViolations > 0:
			soakErr = fmt.Errorf("soak: %d sessions over the %v latency budget", sr.LatencyViolations, *maxLat)
		case sr.CoinViolations > 0:
			soakErr = fmt.Errorf("soak: %d sessions over the %d coin-round budget", sr.CoinViolations, *maxCoin)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("loadgen: n=%d t=%d transport=%s window=%d bytes=%d pool=%v\n",
			rep.N, rep.T, rep.Transport, rep.Window, rep.ValueBytes, rep.Pool)
		fmt.Printf("  %d sessions in %.1fs (+%.1fs drain) = %.1f decisions/sec (%d completed in drain, excluded)\n",
			rep.Sessions, rep.DurationSecs, rep.DrainSecs, rep.DecisionsSec, rep.DrainCompleted)
		fmt.Printf("  latency p50=%.0fms p95=%.0fms p99=%.0fms; peak concurrent sessions=%d\n",
			rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.PeakSessions)
		fmt.Printf("  coin rounds/session mean=%.1f p50=%.0f p95=%.0f max=%d\n",
			rep.CoinMean, rep.CoinP50, rep.CoinP95, rep.CoinMax)
		fmt.Printf("  frames sent=%d (%.1f MiB) recv=%d; late payloads dropped=%d\n",
			rep.SentFrames, float64(rep.SentBytes)/(1<<20), rep.RecvFrames, rep.LatePayloadsDropped)
		fmt.Printf("  proposal values forwarded=%d, pulled=%d, candidates dropped=%d\n", rep.ValueForwards, rep.ValuePulls, rep.ValueCandidatesDropped)
		if rep.Pool {
			fmt.Printf("  pool: refills=%d handouts=%d doubleHandouts=%d leakedSupplies=%d\n",
				rep.PoolRefills, rep.PoolHandouts, rep.PoolDoubleHandouts, rep.PoolLeakedSupplies)
		}
		if rep.Soak != nil {
			fmt.Printf("  soak: samples=%d rate %.2f/s → %.2f/s stateMax=%d rememberedMax=%d latViol=%d coinViol=%d\n",
				rep.Soak.Samples, rep.Soak.RateFirstHalf, rep.Soak.RateSecondHalf,
				rep.Soak.StateMax, rep.Soak.RememberedMax, rep.Soak.LatencyViolations, rep.Soak.CoinViolations)
		}
	}

	if !rep.SubsetsOK {
		return fmt.Errorf("cross-node subset verification failed")
	}
	if !rep.BaselineOK {
		return fmt.Errorf("per-session state did not retire to baseline")
	}
	if rep.PoolDoubleHandouts > 0 {
		return fmt.Errorf("coin pool handed out %d sharings twice", rep.PoolDoubleHandouts)
	}
	if rep.PoolLeakedSupplies > 0 {
		return fmt.Errorf("coin pool leaked %d live supplies after drain", rep.PoolLeakedSupplies)
	}
	if total == 0 {
		return fmt.Errorf("no sessions completed")
	}
	if *minRate > 0 && rep.DecisionsSec < *minRate {
		return fmt.Errorf("decisions/sec %.2f below required %.2f", rep.DecisionsSec, *minRate)
	}
	if *minPeak > 0 && rep.PeakSessions < *minPeak {
		return fmt.Errorf("peak concurrent sessions %d below required %d", rep.PeakSessions, *minPeak)
	}
	return soakErr
}

// evalSoak turns the sampler's observations into the watchdog verdict.
// Throughput flatness: per-interval decision deltas, warmup dropped,
// second-half mean must stay above flatness × first-half mean. State
// boundedness: hard cap when stateCap > 0, else the relative rule
// (grows); remembered sessions: the relative rule. Short runs (under 6
// samples) pass vacuously — the watchdog needs a curve.
func evalSoak(samples []soakSample, flatness float64, stateCap int) soakReport {
	sr := soakReport{Samples: len(samples), FlatnessOK: true, BoundedOK: true, RememberedOK: true}
	for _, s := range samples {
		sr.StateMax = max(sr.StateMax, s.state)
		sr.RememberedMax = max(sr.RememberedMax, s.remembered)
	}
	if stateCap > 0 && sr.StateMax > stateCap {
		sr.BoundedOK = false
	}
	if len(samples) < 6 {
		return sr
	}

	// Flatness over per-interval decision deltas (skip the first delta:
	// session startup makes it unrepresentative).
	deltas := make([]float64, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		dt := samples[i].at.Sub(samples[i-1].at).Seconds()
		if dt <= 0 {
			continue
		}
		deltas = append(deltas, float64(samples[i].decisions-samples[i-1].decisions)/dt)
	}
	if len(deltas) >= 4 {
		deltas = deltas[1:]
		half := len(deltas) / 2
		mean := func(xs []float64) float64 {
			var s float64
			for _, x := range xs {
				s += x
			}
			return s / float64(len(xs))
		}
		sr.RateFirstHalf = mean(deltas[:half])
		sr.RateSecondHalf = mean(deltas[half:])
		if sr.RateFirstHalf > 0 && sr.RateSecondHalf < flatness*sr.RateFirstHalf {
			sr.FlatnessOK = false
		}
	}

	if stateCap <= 0 && grows(samples, func(s soakSample) int { return s.state }) {
		sr.BoundedOK = false
	}
	if grows(samples, func(s soakSample) int { return s.remembered }) {
		sr.RememberedOK = false
	}
	return sr
}

// grows is the relative boundedness rule: the median of the last third
// of the samples must stay under 2× the median of the first third plus
// slack (live counts legitimately fluctuate with the session window).
func grows(samples []soakSample, sel func(soakSample) int) bool {
	third := len(samples) / 3
	if third < 2 {
		return false
	}
	median := func(part []soakSample) int {
		vs := make([]int, len(part))
		for i, s := range part {
			vs[i] = sel(s)
		}
		sort.Ints(vs)
		return vs[len(vs)/2]
	}
	return median(samples[len(samples)-third:]) > 2*median(samples[:third])+64
}

// matchSuffix reports whether name ends with suffix (tiny helper so the
// reporter can sum per-node gauges without regexp).
func matchSuffix(name, suffix string) bool {
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
