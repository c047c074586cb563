package node_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

const waitFor = 2 * time.Minute

// startMeshCluster boots n nodes over an in-process channel mesh with
// alternating inputs and returns (nodes, mesh). skip lists ids that get
// a node (and endpoint) but are not started — fail-stopped from time 0.
func startMeshCluster(t *testing.T, n int, skip map[sim.ProcID]bool) ([]*node.Node, *transport.Mesh) {
	t.Helper()
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	nodes := make([]*node.Node, n+1)
	for p := 1; p <= n; p++ {
		ep, err := mesh.Endpoint(sim.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		// Live endpoints come up before any node boots so no Init-time
		// frame from a fast first node is dropped (see RunCluster).
		if !skip[sim.ProcID(p)] {
			if err := ep.Start(); err != nil {
				t.Fatal(err)
			}
		}
		nd, err := node.New(node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(1000 + p),
			Input: (p - 1) % 2,
			Codec: codec,
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = nd
	}
	for p := 1; p <= n; p++ {
		if skip[sim.ProcID(p)] {
			continue
		}
		if err := nodes[p].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for p := 1; p <= n; p++ {
			nodes[p].Stop()
		}
	})
	return nodes, mesh
}

func waitAgreement(t *testing.T, nodes []*node.Node, ids ...sim.ProcID) int {
	t.Helper()
	decisions := make(map[sim.ProcID]int, len(ids))
	for _, id := range ids {
		v, err := nodes[id].WaitDecision(waitFor)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		decisions[id] = v
	}
	first := decisions[ids[0]]
	for _, id := range ids {
		if decisions[id] != first {
			t.Fatalf("disagreement: %v", decisions)
		}
		if decisions[id] != 0 && decisions[id] != 1 {
			t.Fatalf("non-binary decision %d from node %d", decisions[id], id)
		}
	}
	return first
}

// TestMeshClusterAgreement is the in-process-transport agreement test:
// the full protocol stack, every message through the wire codec, real
// goroutine concurrency — CI runs it under -race.
func TestMeshClusterAgreement(t *testing.T) {
	nodes, _ := startMeshCluster(t, 4, nil)
	waitAgreement(t, nodes, 1, 2, 3, 4)
	for p := 1; p <= 4; p++ {
		if errs := nodes[p].Errs(); len(errs) > 0 {
			t.Errorf("node %d errors: %v", p, errs)
		}
		st := nodes[p].Stats()
		if st.Sent == 0 || st.Recv == 0 || st.SentBytes == 0 {
			t.Errorf("node %d recorded no traffic: %+v", p, st)
		}
		if st.DecodeErrs != 0 {
			t.Errorf("node %d decode errors: %d", p, st.DecodeErrs)
		}
	}
}

// transportGoroutines counts the live goroutines started from package
// transport.
func transportGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by svssba/internal/transport.")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestMeshNodesStartNoTransportGoroutine pins that nodes read their
// Mesh inboxes in place: bringing four nodes up and through an agreement
// starts no goroutine in package transport, so no forwarding hop sits
// between a peer's Send and the node's delivery goroutine.
func TestMeshNodesStartNoTransportGoroutine(t *testing.T) {
	before := transportGoroutines()
	nodes, _ := startMeshCluster(t, 4, nil)
	waitAgreement(t, nodes, 1, 2, 3, 4)
	if after := transportGoroutines(); after > before {
		t.Fatalf("a 4-node mesh cluster started %d transport goroutines", after-before)
	}
}

func TestMeshClusterCrashFault(t *testing.T) {
	// Node 4 is fail-stopped from time zero; the other 3 of n=4 (t=1)
	// must still reach agreement.
	nodes, _ := startMeshCluster(t, 4, map[sim.ProcID]bool{4: true})
	nodes[4].Crash()
	waitAgreement(t, nodes, 1, 2, 3)
	if !nodes[4].Crashed() {
		t.Error("node 4 not marked crashed")
	}
	if _, ok := nodes[4].Decision(); ok {
		t.Error("crashed node decided")
	}
}

func TestMeshClusterMidRunCrash(t *testing.T) {
	nodes, _ := startMeshCluster(t, 4, nil)
	// Let the cluster make some progress, then kill node 4 abruptly.
	time.Sleep(10 * time.Millisecond)
	nodes[4].Crash()
	waitAgreement(t, nodes, 1, 2, 3)
}

func TestNodeRestartLifecycle(t *testing.T) {
	nodes, mesh := startMeshCluster(t, 4, nil)
	time.Sleep(5 * time.Millisecond)
	nodes[2].Crash()
	if err := nodes[2].Start(); err == nil {
		t.Fatal("Start after crash should fail (use Restart)")
	}
	// The surviving quorum keeps going.
	waitAgreement(t, nodes, 1, 3, 4)

	// Restart node 2 on a fresh endpoint: the incarnation must boot a
	// fresh stack, re-propose, and run without errors. (It may not
	// re-converge — the peers' Decide messages predate the restart —
	// but the lifecycle itself must work and produce traffic.)
	sentBefore := nodes[2].Stats().Sent
	ep, err := mesh.ResetEndpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Restart(ep); err != nil {
		t.Fatal(err)
	}
	if nodes[2].Crashed() {
		t.Error("restarted node still marked crashed")
	}
	if _, ok := nodes[2].Decision(); ok {
		t.Error("decision survived restart")
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[2].Stats().Sent <= sentBefore {
		if time.Now().After(deadline) {
			t.Fatal("restarted node sent nothing")
		}
		time.Sleep(time.Millisecond)
	}
	for _, err := range nodes[2].Errs() {
		t.Errorf("restarted node error: %v", err)
	}
}

func TestTCPClusterAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("socket cluster in -short mode")
	}
	const n = 4
	codec := core.NewCodec()
	trs := make([]*transport.TCP, n+1)
	addrs := make(map[sim.ProcID]string, n)
	for p := 1; p <= n; p++ {
		trs[p] = transport.NewTCP(sim.ProcID(p), "127.0.0.1:0", nil)
		if err := trs[p].Start(); err != nil {
			t.Fatal(err)
		}
		addrs[sim.ProcID(p)] = trs[p].Addr()
	}
	nodes := make([]*node.Node, n+1)
	for p := 1; p <= n; p++ {
		trs[p].SetPeers(addrs)
		nd, err := node.New(node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(2000 + p),
			Input: (p - 1) % 2,
			Codec: codec,
		}, trs[p])
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = nd
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for p := 1; p <= n; p++ {
			nodes[p].Stop()
		}
	})
	waitAgreement(t, nodes, 1, 2, 3, 4)
	for p := 1; p <= n; p++ {
		if errs := nodes[p].Errs(); len(errs) > 0 {
			t.Errorf("node %d errors: %v", p, errs)
		}
	}
}

// TestStatsByLayer checks the per-layer split of a node's traffic on
// the wire-v2 stack every node runs: broadcasts travel as rb (bundles
// included) and wrb, agreement votes as aba, and each burst's direct
// payloads to one peer as a single pack, which the stats count as one
// payload of the "pack" layer rather than unwrapping. Per-layer totals
// must fold back to the node totals in both directions.
func TestStatsByLayer(t *testing.T) {
	nodes, _ := startMeshCluster(t, 4, nil)
	waitAgreement(t, nodes, 1, 2, 3, 4)
	st := nodes[1].Stats()
	layers := st.ByLayer()
	for _, want := range []string{"aba", "pack", "rb", "wrb"} {
		l, ok := layers[want]
		if !ok || l.SentMsgs == 0 || l.SentBytes == 0 || l.RecvMsgs == 0 {
			t.Errorf("layer %q missing or empty: %+v (have %v)", want, l, st.Layers())
		}
	}
	var sent, sentB, recv, recvB int64
	for _, l := range layers {
		sent += l.SentMsgs
		sentB += l.SentBytes
		recv += l.RecvMsgs
		recvB += l.RecvBytes
	}
	if sent != st.Sent || sentB != st.SentBytes {
		t.Errorf("sent layer totals %d/%d != node totals %d/%d", sent, sentB, st.Sent, st.SentBytes)
	}
	if recv != st.Recv || recvB != st.RecvBytes {
		t.Errorf("recv layer totals %d/%d != node totals %d/%d", recv, recvB, st.Recv, st.RecvBytes)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	mesh := transport.NewMesh(4)
	ep, _ := mesh.Endpoint(1)
	cases := []node.Config{
		{ID: 1, N: 1},
		{ID: 0, N: 4},
		{ID: 5, N: 4},
		{ID: 1, N: 4, Input: 2},
		{ID: 2, N: 4}, // transport endpoint mismatch
	}
	for i, cfg := range cases {
		if _, err := node.New(cfg, ep); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := node.New(node.Config{ID: 1, N: 4}, nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for kind, want := range map[string]string{
		"aba/bval": "aba",
		"rb/type3": "rb",
		"plain":    "plain",
	} {
		if got := node.LayerOf(kind); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", kind, got, want)
		}
	}
}
