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

// newAgreementNode builds node cfg.ID on tr hosting a fresh Agreement
// driver that proposes (ID−1) mod 2, and stops it at cleanup. It does
// not start the node.
func newAgreementNode(t *testing.T, cfg node.Config, tr transport.Transport) (*node.Node, *node.Agreement) {
	t.Helper()
	agr, err := node.NewAgreement(int(cfg.ID-1) % 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Service = agr
	nd, err := node.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd, agr
}

// startAgreement starts nd and proposes its agreement's input.
func startAgreement(t *testing.T, nd *node.Node, agr *node.Agreement) {
	t.Helper()
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := agr.Propose(nd); err != nil {
		t.Fatal(err)
	}
}

// bootAgreement is newAgreementNode followed by startAgreement.
func bootAgreement(t *testing.T, cfg node.Config, tr transport.Transport) (*node.Node, *node.Agreement) {
	t.Helper()
	nd, agr := newAgreementNode(t, cfg, tr)
	startAgreement(t, nd, agr)
	return nd, agr
}

// startMeshCluster boots n Agreement nodes over an in-process channel
// mesh with alternating inputs and returns (nodes, agreements, mesh).
// skip lists ids that get a node (and endpoint) but are not started —
// fail-stopped from time 0.
func startMeshCluster(t *testing.T, n int, skip map[sim.ProcID]bool) ([]*node.Node, []*node.Agreement, *transport.Mesh) {
	t.Helper()
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	nodes := make([]*node.Node, n+1)
	agrs := make([]*node.Agreement, n+1)
	for p := 1; p <= n; p++ {
		ep, err := mesh.Endpoint(sim.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		// Live endpoints come up before any node boots so no first frame
		// from a fast node is dropped (see RunCluster).
		if !skip[sim.ProcID(p)] {
			if err := ep.Start(); err != nil {
				t.Fatal(err)
			}
		}
		nodes[p], agrs[p] = newAgreementNode(t, node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(1000 + p),
			Codec: codec,
		}, ep)
	}
	for p := 1; p <= n; p++ {
		if !skip[sim.ProcID(p)] {
			startAgreement(t, nodes[p], agrs[p])
		}
	}
	return nodes, agrs, mesh
}

func waitAgreement(t *testing.T, agrs []*node.Agreement, ids ...sim.ProcID) int {
	t.Helper()
	decisions := make(map[sim.ProcID]int, len(ids))
	for _, id := range ids {
		v, err := agrs[id].WaitDecision(waitFor)
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
	nodes, agrs, _ := startMeshCluster(t, 4, nil)
	waitAgreement(t, agrs, 1, 2, 3, 4)
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
	_, agrs, _ := startMeshCluster(t, 4, nil)
	waitAgreement(t, agrs, 1, 2, 3, 4)
	if after := transportGoroutines(); after > before {
		t.Fatalf("a 4-node mesh cluster started %d transport goroutines", after-before)
	}
}

func TestMeshClusterCrashFault(t *testing.T) {
	// Node 4 is fail-stopped from time zero; the other 3 of n=4 (t=1)
	// must still reach agreement.
	nodes, agrs, _ := startMeshCluster(t, 4, map[sim.ProcID]bool{4: true})
	nodes[4].Crash()
	waitAgreement(t, agrs, 1, 2, 3)
	if !nodes[4].Crashed() {
		t.Error("node 4 not marked crashed")
	}
	if _, ok := agrs[4].Decision(); ok {
		t.Error("crashed node decided")
	}
}

func TestMeshClusterMidRunCrash(t *testing.T) {
	nodes, agrs, _ := startMeshCluster(t, 4, nil)
	// Let the cluster make some progress, then kill node 4 abruptly.
	time.Sleep(10 * time.Millisecond)
	nodes[4].Crash()
	waitAgreement(t, agrs, 1, 2, 3)
}

// TestNodeRestartLifecycle pins the crash-and-come-back lifecycle: a
// crashed node cannot start again, and a fresh incarnation is a new
// Node with a new Agreement on a fresh endpoint of the same identity,
// which boots a fresh stack, proposes, and runs without errors. (It may
// not re-converge — its peers retired the agreement before it came back
// — but the lifecycle itself must work and produce traffic.)
func TestNodeRestartLifecycle(t *testing.T) {
	nodes, agrs, mesh := startMeshCluster(t, 4, nil)
	time.Sleep(5 * time.Millisecond)
	nodes[2].Crash()
	if err := nodes[2].Start(); err == nil {
		t.Fatal("Start after crash should fail")
	}
	// The surviving quorum keeps going.
	waitAgreement(t, agrs, 1, 3, 4)

	ep, err := mesh.ResetEndpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	nd, agr := bootAgreement(t, node.Config{ID: 2, N: 4, Seed: 1002, Codec: core.NewCodec()}, ep)
	if nd.Crashed() {
		t.Error("fresh incarnation marked crashed")
	}
	if _, ok := agr.Decision(); ok {
		t.Error("fresh incarnation decided before any traffic")
	}
	deadline := time.Now().Add(10 * time.Second)
	for nd.Stats().Sent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fresh incarnation sent nothing")
		}
		time.Sleep(time.Millisecond)
	}
	for _, err := range nd.Errs() {
		t.Errorf("fresh incarnation error: %v", err)
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
	agrs := make([]*node.Agreement, n+1)
	for p := 1; p <= n; p++ {
		trs[p].SetPeers(addrs)
		nodes[p], agrs[p] = bootAgreement(t, node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(2000 + p),
			Codec: codec,
		}, trs[p])
	}
	waitAgreement(t, agrs, 1, 2, 3, 4)
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
	nodes, agrs, _ := startMeshCluster(t, 4, nil)
	waitAgreement(t, agrs, 1, 2, 3, 4)
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
	agr, err := node.NewAgreement(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []node.Config{
		{ID: 1, N: 1, Service: agr},
		{ID: 0, N: 4, Service: agr},
		{ID: 5, N: 4, Service: agr},
		{ID: 1, N: 4},               // no service driver
		{ID: 2, N: 4, Service: agr}, // transport endpoint mismatch
	}
	for i, cfg := range cases {
		if _, err := node.New(cfg, ep); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := node.New(node.Config{ID: 1, N: 4, Service: agr}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := node.NewAgreement(2); err == nil {
		t.Error("non-binary agreement input accepted")
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
