// Command cluster spawns an n-node agreement cluster on the node
// runtime — over real localhost TCP sockets by default — injects
// transport-level faults (crashes, random delays, frame drops), asserts
// agreement among the honest nodes, and prints a per-layer
// message/byte stats table. It exits nonzero if agreement fails or the
// complexity report counts no MW-SVSS instances.
//
// Examples:
//
//	cluster -n 4 -crash 1
//	cluster -n 7 -crash 1 -droppers 1 -drop 0.3 -delay 2ms
//	cluster -n 4 -transport chan -seed 7 -v
//	cluster -n 4 -http 127.0.0.1:8780 -tracefile trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"svssba"
	"svssba/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n          = flag.Int("n", 4, "number of nodes")
		t          = flag.Int("t", 0, "resilience bound (default (n-1)/3)")
		seed       = flag.Int64("seed", 1, "seed for node randomness and fault injection")
		transportK = flag.String("transport", "tcp", "tcp | chan")
		basePort   = flag.Int("baseport", 0, "first TCP port (0 = ephemeral)")
		crash      = flag.Int("crash", 0, "fail-stop this many nodes (taken from the top ids)")
		crashAfter = flag.Duration("crashafter", 0, "crash the nodes this long into the run (0 = never started)")
		delay      = flag.Duration("delay", 0, "max random extra delay injected per frame on every link")
		drop       = flag.Float64("drop", 0, "outbound frame drop probability for dropper nodes")
		droppers   = flag.Int("droppers", 0, "number of dropper nodes (taken below the crashed ids)")
		timeout    = flag.Duration("timeout", 60*time.Second, "run deadline")
		inputsArg  = flag.String("inputs", "", "comma-separated binary inputs (default alternating)")
		verbose    = flag.Bool("v", false, "print per-node stats lines")

		httpAddr  = flag.String("http", "", "serve live /metrics and /debug/pprof on this address during the run")
		traceCap  = flag.Int("trace", 0, "per-node protocol round tracer capacity (0 = off; -tracefile defaults to 4096)")
		traceFile = flag.String("tracefile", "", "write all nodes' round traces as JSONL to this file at exit")
	)
	flag.Parse()
	if *traceCap == 0 && *traceFile != "" {
		*traceCap = 4096
	}

	cfg := svssba.ClusterConfig{
		N:          *n,
		T:          *t,
		Seed:       *seed,
		Transport:  svssba.TransportKind(*transportK),
		BasePort:   *basePort,
		CrashAfter: *crashAfter,
		Delay:      *delay,
		Drop:       *drop,
		Timeout:    *timeout,
		TraceCap:   *traceCap,
	}
	if *httpAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(*httpAddr, cfg.Metrics)
		if err != nil {
			return fmt.Errorf("http endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cluster: observability endpoint on http://%s\n", srv.Addr())
	}
	// Fault ids are carved off the top of the id range: crashes take the
	// last -crash ids, droppers the ids just below them.
	for i := *n - *crash + 1; i <= *n; i++ {
		cfg.Crash = append(cfg.Crash, i)
	}
	for i := *n - *crash - *droppers + 1; i <= *n-*crash; i++ {
		cfg.Droppers = append(cfg.Droppers, i)
	}
	if *inputsArg != "" {
		for _, part := range strings.Split(*inputsArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad input %q: %v", part, err)
			}
			cfg.Inputs = append(cfg.Inputs, v)
		}
	}

	effT := cfg.T
	if effT == 0 {
		effT = (cfg.N - 1) / 3
	}
	fmt.Printf("cluster       n=%d t=%d seed=%d transport=%s timeout=%v\n",
		cfg.N, effT, cfg.Seed, cfg.Transport, cfg.Timeout)
	if len(cfg.Crash) > 0 {
		fmt.Printf("crash         %v (after %v)\n", cfg.Crash, cfg.CrashAfter)
	}
	if len(cfg.Droppers) > 0 {
		fmt.Printf("droppers      %v (drop %.2f)\n", cfg.Droppers, cfg.Drop)
	}
	if cfg.Delay > 0 {
		fmt.Printf("link delay    up to %v per frame\n", cfg.Delay)
	}

	res, err := svssba.RunCluster(cfg)
	if err != nil {
		return err
	}

	ids := make([]int, 0, len(res.Decisions))
	for id := range res.Decisions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("%d:%d", id, res.Decisions[id]))
	}
	fmt.Printf("decisions     %s\n", strings.Join(parts, " "))
	fmt.Printf("honest        %v\n", res.Honest)
	fmt.Printf("agreed        %v\n", res.Agreed)
	if res.Agreed {
		fmt.Printf("value         %d\n", res.Value)
	}
	fmt.Printf("elapsed       %v\n", res.Elapsed.Round(time.Millisecond))

	// Per-layer stats aggregated over honest nodes.
	honest := make(map[int]bool, len(res.Honest))
	for _, id := range res.Honest {
		honest[id] = true
	}
	var honestStats []svssba.ClusterNodeStats
	for _, nd := range res.Nodes {
		if honest[nd.ID] {
			honestStats = append(honestStats, nd)
		}
	}
	layers, agg := svssba.ClusterLayerTable(honestStats)
	fmt.Printf("\n%-8s %12s %12s %14s %12s %12s %14s\n",
		"layer", "sent plds", "sent frames", "sent bytes", "recv plds", "recv frames", "recv bytes")
	var tot svssba.ClusterLayerStats
	for _, l := range layers {
		a := agg[l]
		fmt.Printf("%-8s %12d %12d %14d %12d %12d %14d\n",
			l, a.SentMsgs, a.SentFrames, a.SentBytes, a.RecvMsgs, a.RecvFrames, a.RecvBytes)
		tot.SentMsgs += a.SentMsgs
		tot.SentFrames += a.SentFrames
		tot.SentBytes += a.SentBytes
		tot.RecvMsgs += a.RecvMsgs
		tot.RecvFrames += a.RecvFrames
		tot.RecvBytes += a.RecvBytes
	}
	fmt.Printf("%-8s %12d %12d %14d %12d %12d %14d\n",
		"total", tot.SentMsgs, tot.SentFrames, tot.SentBytes, tot.RecvMsgs, tot.RecvFrames, tot.RecvBytes)

	// Physical transport frames (whole frames, possibly spanning layers)
	// vs logical payloads over the honest nodes — the outbox's frame
	// reduction.
	var plds, frames, fbytes int64
	for _, nd := range honestStats {
		plds += nd.Sent
		frames += nd.SentFrames
		fbytes += nd.SentFrameBytes
	}
	if plds > 0 {
		fmt.Printf("\nphysical      %d frames (%d B on the wire) for %d payloads — %.1f%% frame reduction\n",
			frames, fbytes, plds, 100*(1-float64(frames)/float64(plds)))
	}

	// Shedding counters over the honest nodes: payloads that arrived for
	// the already-retired agreement and were dropped at the door, and
	// payloads rejected by the size guard.
	var latePlds, oversized int64
	for _, nd := range honestStats {
		latePlds += nd.DroppedLatePayloads
		oversized += nd.OversizedDropped
	}
	fmt.Printf("drops         late payloads=%d oversized=%d\n", latePlds, oversized)

	// Message-complexity report: logical deliveries normalized by the
	// protocol's unit counts over the honest nodes.
	cx := svssba.Complexity(honestStats)
	fmt.Printf("\ncomplexity    %d deliveries | coin rounds=%d rb=%d mw=%d svss=%d\n",
		cx.Deliveries, cx.CoinRounds, cx.RBCreated, cx.MWCreated, cx.SVSSCreated)
	if cx.CoinRounds > 0 {
		fmt.Printf("              %.0f deliveries/coin-round\n", cx.PerCoinRound())
	}
	if cx.MWCreated > 0 {
		fmt.Printf("              %.1f deliveries/mw-instance\n", cx.PerMWInstance())
	}
	if cx.RBCreated > 0 {
		fmt.Printf("              %.1f deliveries/rb-session\n", cx.PerRBSession())
	}

	if *verbose {
		fmt.Println()
		for _, nd := range res.Nodes {
			status := "honest"
			switch {
			case nd.Crashed:
				status = "crashed"
			case nd.Dropper:
				status = "dropper"
			}
			decision := "-"
			if nd.Decided {
				decision = strconv.Itoa(nd.Decision)
			}
			fmt.Printf("node %-3d %-8s decision=%-2s sent=%d plds / %d frames (%d B) recv=%d plds / %d frames (%d B)\n",
				nd.ID, status, decision, nd.Sent, nd.SentFrames, nd.SentFrameBytes, nd.Recv, nd.RecvFrames, nd.RecvFrameBytes)
		}
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		for _, tr := range res.Traces {
			if err := tr.WriteJSONL(f); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cluster: wrote round traces to %s\n", *traceFile)
	}

	if !res.Agreed {
		return fmt.Errorf("agreement violated: decisions %v", res.Decisions)
	}
	if cx.MWCreated == 0 {
		// Every agreement shares through MW-SVSS; a zero count means the
		// instance accounting broke.
		return fmt.Errorf("complexity report counted no MW instances")
	}
	return nil
}
