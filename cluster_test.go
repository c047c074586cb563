package svssba_test

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"svssba"
	"svssba/internal/obs"
)

func TestRunClusterChanAgreement(t *testing.T) {
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      1,
		Transport: svssba.TransportChan,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if !res.Agreed || len(res.Decisions) != 4 {
		t.Fatalf("result: %+v", res)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("non-binary value %d", res.Value)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("stats for %d nodes", len(res.Nodes))
	}
	for _, nd := range res.Nodes {
		if nd.Sent == 0 || nd.SentBytes == 0 {
			t.Errorf("node %d recorded no traffic", nd.ID)
		}
		if len(nd.ByLayer) == 0 {
			t.Errorf("node %d has no per-layer stats", nd.ID)
		}
	}
}

// TestRunClusterCountsInstances pins the complexity denominators: every
// honest node reports the RB, MW-SVSS and SVSS instances its agreement
// created, whether the stats were read before or after its stack
// retired (RunCluster reads them as soon as the honest nodes decide).
func TestRunClusterCountsInstances(t *testing.T) {
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      1,
		Transport: svssba.TransportChan,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	for _, nd := range res.Nodes {
		if nd.RBCreated == 0 || nd.MWCreated == 0 || nd.SVSSCreated == 0 {
			t.Errorf("node %d counted no instances: rb=%d mw=%d svss=%d", nd.ID, nd.RBCreated, nd.MWCreated, nd.SVSSCreated)
		}
	}
}

// TestRunClusterTCPCrash is the acceptance scenario: agreement over
// real localhost TCP sockets with one node crashed.
func TestRunClusterTCPCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("socket cluster in -short mode")
	}
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      2,
		Transport: svssba.TransportTCP,
		Crash:     []int{4},
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("no agreement: %+v", res.Decisions)
	}
	if len(res.Honest) != 3 {
		t.Errorf("honest = %v", res.Honest)
	}
	for _, nd := range res.Nodes {
		if nd.ID == 4 {
			if !nd.Crashed || nd.Decided {
				t.Errorf("crashed node state: %+v", nd)
			}
		}
	}
}

func TestRunClusterMidRunCrash(t *testing.T) {
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N:          4,
		Seed:       3,
		Transport:  svssba.TransportChan,
		Crash:      []int{2},
		CrashAfter: 5 * time.Millisecond,
		Timeout:    2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("no agreement: %+v", res.Decisions)
	}
}

// The TestRunLive* tests are the only tests of the link-delay path: the
// in-process channel mesh with a random per-frame delay on every link.

func TestRunLiveAgreement(t *testing.T) {
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      9,
		Transport: svssba.TransportChan,
		Delay:     200 * time.Microsecond,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("live run disagreement: %+v", res.Decisions)
	}
	if len(res.Decisions) != 4 {
		t.Errorf("decisions: %v", res.Decisions)
	}
}

func TestRunLiveInvalidConfig(t *testing.T) {
	cases := []svssba.ClusterConfig{
		{N: 0},
		{N: 1},
		{N: 4, Inputs: []int{1}},
		{N: 4, Inputs: []int{0, 1, 2, 1}},
	}
	for i, cfg := range cases {
		cfg.Transport, cfg.Delay = svssba.TransportChan, 2*time.Millisecond
		if _, err := svssba.RunCluster(cfg); err == nil {
			t.Errorf("case %d: invalid live config accepted", i)
		}
	}
}

func TestRunLiveTimeout(t *testing.T) {
	// 1ms is far below what an n=4 agreement needs (hundreds of
	// thousands of messages), so the run must hit the deadline.
	_, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      42,
		Transport: svssba.TransportChan,
		Delay:     2 * time.Millisecond,
		Timeout:   time.Millisecond,
	})
	if err == nil {
		t.Fatal("1ms live run did not time out")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error = %v, want timeout", err)
	}
}

func TestRunLiveReportsTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("full live run in -short mode")
	}
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      10,
		Transport: svssba.TransportChan,
		Delay:     100 * time.Microsecond,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("disagreement: %v", res.Decisions)
	}
	var msgs, bytes int64
	for _, nd := range res.Nodes {
		msgs += nd.Sent
		bytes += nd.SentBytes
	}
	if msgs == 0 || bytes == 0 {
		t.Errorf("no traffic recorded: %d messages, %d bytes", msgs, bytes)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

func TestRunClusterValidation(t *testing.T) {
	cases := []svssba.ClusterConfig{
		{N: 1},
		{N: 4, Inputs: []int{1}},
		{N: 4, Inputs: []int{0, 1, 2, 1}},
		{N: 4, Transport: "carrier-pigeon"},
		{N: 4, Crash: []int{9}},
		{N: 4, Crash: []int{1, 2}},                  // two faults at t=1
		{N: 4, Crash: []int{1}, Droppers: []int{1}}, // double assignment (also no Drop)
		{N: 4, Drop: 0.5},                           // drop without droppers
		{N: 4, Droppers: []int{1}},                  // droppers without drop
		{N: 4, Drop: 1.5, Droppers: []int{1}},
	}
	for i, cfg := range cases {
		if _, err := svssba.RunCluster(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// A t outside 0 <= 3t < n is refused up front, not run until it
	// times out.
	for _, bad := range []int{2, 3, -1} {
		_, err := svssba.RunCluster(svssba.ClusterConfig{N: 4, T: bad, Timeout: 5 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "resilience bound") {
			t.Errorf("t=%d at n=4: err = %v, want a resilience-bound error", bad, err)
		}
	}
}

// TestStartServiceValidation checks that a service config outside the
// size rules — too few processes, an unknown transport, a t outside
// 0 <= 3t < n — is refused before any node starts.
func TestStartServiceValidation(t *testing.T) {
	cases := []svssba.ServiceConfig{
		{N: 1},
		{N: 4, Transport: "carrier-pigeon"},
		{N: 4, T: 2},
		{N: 4, T: 3},
		{N: 4, T: -1},
	}
	for i, cfg := range cases {
		cl, err := svssba.StartService(cfg)
		if err == nil {
			cl.Close()
			t.Errorf("case %d: invalid service config %+v accepted", i, cfg)
		}
	}
}

func TestClusterSpecValidate(t *testing.T) {
	good := svssba.NewLocalClusterSpec(4, 0, 7, 7100)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// JSON round trip is what cmd/node relies on.
	raw, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	var back svssba.ClusterSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 4 || len(back.Nodes) != 4 || back.Nodes[3].Addr != "127.0.0.1:7103" {
		t.Errorf("spec round trip: %+v", back)
	}

	bad := []svssba.ClusterSpec{
		{N: 1},
		{N: 4, Nodes: []svssba.ClusterNodeAddr{{ID: 1, Addr: "x"}}},
		{N: 2, Nodes: []svssba.ClusterNodeAddr{{ID: 1, Addr: "x"}, {ID: 1, Addr: "y"}}},
		{N: 2, Nodes: []svssba.ClusterNodeAddr{{ID: 1, Addr: "x"}, {ID: 5, Addr: "y"}}},
		{N: 2, Nodes: []svssba.ClusterNodeAddr{{ID: 1, Addr: "x"}, {ID: 2}}},
		{N: 2, Inputs: []int{1}, Nodes: []svssba.ClusterNodeAddr{{ID: 1, Addr: "x"}, {ID: 2, Addr: "y"}}},
		{N: 4, T: 2, Nodes: good.Nodes},
		{N: 4, T: 3, Nodes: good.Nodes},
		{N: 4, T: -1, Nodes: good.Nodes},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := svssba.RunSpecNode(good, 9, time.Second, 0, nil, nil); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestParseClusterSpecStrict pins cmd/node's spec loader: the spec
// `node -gen` writes parses back to the same value, and a spec carrying
// a key the loader does not know — a removed option or a misspelt one —
// is refused instead of starting a node that ignores it.
func TestParseClusterSpecStrict(t *testing.T) {
	gen := svssba.NewLocalClusterSpec(4, 1, 7, 7100)
	gen.Inputs = []int{0, 1, 1, 0}
	raw, err := json.MarshalIndent(gen, "", "  ") // the -gen encoding
	if err != nil {
		t.Fatal(err)
	}
	back, err := svssba.ParseClusterSpec(raw)
	if err != nil {
		t.Fatalf("generated spec rejected: %v", err)
	}
	if !reflect.DeepEqual(back, gen) {
		t.Errorf("spec round trip: got %+v, want %+v", back, gen)
	}

	nodes := `"nodes": [{"id": 1, "addr": "a:1"}, {"id": 2, "addr": "a:2"}, {"id": 3, "addr": "a:3"}, {"id": 4, "addr": "a:4"}]`
	for name, extra := range map[string]string{
		"wire":     `"wire": "v1",`,
		"batching": `"batching": true,`,
		"input":    `"input": [0, 1, 0, 1],`,
	} {
		bad := `{"n": 4, "seed": 1, ` + extra + nodes + `}`
		if _, err := svssba.ParseClusterSpec([]byte(bad)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("spec with %q key: err = %v, want it rejected by name", name, err)
		}
	}
	if _, err := svssba.ParseClusterSpec([]byte(`{"n": 4, "seed": 1, ` + nodes + `} {}`)); err == nil {
		t.Error("spec with trailing data accepted")
	}
	if _, err := svssba.ParseClusterSpec([]byte(`{"n": 5, "seed": 1, ` + nodes + `}`)); err == nil {
		t.Error("spec failing Validate accepted")
	}
}

// freeBasePort finds n consecutive localhost ports that are free right
// now, for tests that need a fixed BasePort.
func freeBasePort(t *testing.T, n int) int {
	t.Helper()
	for try := 0; try < 50; try++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := ln.Addr().(*net.TCPAddr).Port
		ln.Close()
		if base+n-1 > 65535 {
			continue
		}
		if bindAll(base, n) == nil {
			return base
		}
	}
	t.Fatal("no free run of ports")
	return 0
}

// bindAll binds and releases 127.0.0.1:base..base+n-1, reporting the
// first port that cannot be bound.
func bindAll(base, n int) error {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
		if err != nil {
			return err
		}
		lns = append(lns, ln)
	}
	return nil
}

// TestFailedBringUpReleasesPorts checks that a cluster which fails to
// come up leaves no transport behind: every port of its BasePort range
// can be bound again right after the error.
func TestFailedBringUpReleasesPorts(t *testing.T) {
	t.Run("service", func(t *testing.T) {
		base := freeBasePort(t, 4)
		// A pooled dealing this wide is refused when the first node's
		// driver is built — after every listener is up.
		_, startErr := svssba.StartService(svssba.ServiceConfig{
			N: 4, Transport: svssba.TransportTCP, BasePort: base, Pool: true, PoolRounds: 65,
		})
		if startErr == nil {
			t.Fatal("StartService accepted PoolRounds 65")
		}
		if err := bindAll(base, 4); err != nil {
			t.Fatalf("after failed StartService (%v): %v", startErr, err)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		base := freeBasePort(t, 4)
		// Hold the third port so the third listener fails.
		block, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+2))
		if err != nil {
			t.Fatal(err)
		}
		_, err = svssba.RunCluster(svssba.ClusterConfig{N: 4, Transport: svssba.TransportTCP, BasePort: base})
		block.Close()
		if err == nil {
			t.Fatal("RunCluster came up on a taken port")
		}
		if err := bindAll(base, 4); err != nil {
			t.Fatalf("after failed RunCluster: %v", err)
		}
	})
}

// TestRunSpecNodeCluster drives the cmd/node code path: four
// RunSpecNode "processes" sharing one spec, each with its own TCP
// listener, reaching agreement. Node 1 runs with a metrics registry and
// a round tracer attached, as cmd/node -http does.
func TestRunSpecNodeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("socket cluster in -short mode")
	}
	spec := svssba.ClusterSpec{N: 4, Seed: 11}
	for i := 1; i <= 4; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		spec.Nodes = append(spec.Nodes, svssba.ClusterNodeAddr{ID: i, Addr: addr})
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		decisions = make(map[int]int)
		errs      []error
		reg       = obs.NewRegistry()
		tracer    = obs.NewTracer(1, 4096)
	)
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var (
				r  *obs.Registry
				tr *obs.Tracer
			)
			if id == 1 {
				r, tr = reg, tracer
			}
			res, err := svssba.RunSpecNode(spec, id, 2*time.Minute, 100*time.Millisecond, r, tr)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			if len(res.Nodes) != 1 || res.Nodes[0].ID != id || len(res.Honest) != 1 || res.Honest[0] != id {
				t.Errorf("node %d result: nodes %+v, honest %v", id, res.Nodes, res.Honest)
			}
			decisions[id] = res.Value
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("spec node errors: %v", errs)
	}
	if len(decisions) != 4 {
		t.Fatalf("decisions: %v", decisions)
	}
	for id, v := range decisions {
		if v != decisions[1] {
			t.Fatalf("disagreement at node %d: %v", id, decisions)
		}
	}
	if got := reg.Snapshot().Counters["node1.decisions"]; got < 1 {
		t.Errorf("node1.decisions = %d, want >= 1", got)
	}
	if tracer.Total() == 0 {
		t.Error("node 1's tracer recorded no events")
	}
}
