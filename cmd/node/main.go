// Command node runs ONE process of a real multi-process agreement
// cluster from a shared JSON cluster spec: it listens on its spec
// address, dials its peers over TCP, runs the paper's protocol to a
// decision, lingers so slower peers can finish, and prints its decision
// and per-layer traffic stats.
//
// Generate a localhost spec, then start every node (each in its own
// terminal or with & in one shell):
//
//	node -gen -n 4 -baseport 7000 > cluster.json
//	node -spec cluster.json -id 1 &
//	node -spec cluster.json -id 2 &
//	node -spec cluster.json -id 3 &
//	node -spec cluster.json -id 4
//
// Killing a minority of processes (up to t) before they finish models
// crash faults: the remaining nodes still reach agreement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"svssba"
	"svssba/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		specPath = flag.String("spec", "", "path to the JSON cluster spec")
		id       = flag.Int("id", 0, "this node's id in the spec")
		timeout  = flag.Duration("timeout", 60*time.Second, "decision deadline")
		linger   = flag.Duration("linger", 2*time.Second, "keep serving peers this long after deciding")

		httpAddr  = flag.String("http", "", "serve live /metrics, /trace and /debug/pprof on this address during the run")
		traceCap  = flag.Int("trace", 0, "protocol round tracer capacity (0 = off; -http and -tracefile default to 4096)")
		traceFile = flag.String("tracefile", "", "write this node's round trace as JSONL to this file at exit")

		gen      = flag.Bool("gen", false, "generate a localhost spec to stdout instead of running")
		n        = flag.Int("n", 4, "(with -gen) number of nodes")
		t        = flag.Int("t", 0, "(with -gen) resilience bound (default (n-1)/3)")
		seed     = flag.Int64("seed", 1, "(with -gen) cluster seed")
		basePort = flag.Int("baseport", 7000, "(with -gen) first TCP port")
	)
	flag.Parse()

	if *gen {
		spec := svssba.NewLocalClusterSpec(*n, *t, *seed, *basePort)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	}

	if *specPath == "" {
		return fmt.Errorf("need -spec (or -gen to create one)")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := svssba.ParseClusterSpec(raw)
	if err != nil {
		return fmt.Errorf("parse %s: %v", *specPath, err)
	}

	if *traceCap == 0 && (*httpAddr != "" || *traceFile != "") {
		*traceCap = 4096
	}
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if *traceCap > 0 {
		tracer = obs.NewTracer(*id, *traceCap)
	}
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*httpAddr, reg, tracer)
		if err != nil {
			return fmt.Errorf("http endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "node %d: observability endpoint on http://%s\n", *id, srv.Addr())
	}

	fmt.Printf("node %d of %d starting (spec %s, timeout %v)\n", *id, spec.N, *specPath, *timeout)
	res, err := svssba.RunSpecNode(spec, *id, *timeout, *linger, reg, tracer)
	if err != nil {
		return err
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("decision      %d\n", res.Value)
	fmt.Printf("elapsed       %v\n", res.Elapsed.Round(time.Millisecond))
	st := res.Nodes[0]
	fmt.Printf("traffic       sent %d msgs (%d B), recv %d msgs (%d B)\n",
		st.Sent, st.SentBytes, st.Recv, st.RecvBytes)
	fmt.Printf("%-8s %12s %14s %12s %14s\n", "layer", "sent msgs", "sent bytes", "recv msgs", "recv bytes")
	layers, agg := svssba.ClusterLayerTable(res.Nodes)
	for _, l := range layers {
		a := agg[l]
		fmt.Printf("%-8s %12d %14d %12d %14d\n", l, a.SentMsgs, a.SentBytes, a.RecvMsgs, a.RecvBytes)
	}
	return nil
}
