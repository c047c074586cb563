package node_test

import (
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// TestBatchingNodeRestart checks the outbox survives the lifecycle: a
// crashed batching node restarts on a fresh endpoint and the cluster
// still converges, with the restarted incarnation batching again.
func TestBatchingNodeRestart(t *testing.T) {
	const n = 4
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	nodes := make([]*node.Node, n+1)
	for p := 1; p <= n; p++ {
		ep, err := mesh.Endpoint(sim.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(3000 + p),
			Input: (p - 1) % 2,
			Codec: codec,
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = nd
	}
	for p := 1; p <= n; p++ {
		if err := nodes[p].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for p := 1; p <= n; p++ {
			nodes[p].Stop()
		}
	})

	nodes[4].Crash()
	waitAgreement(t, nodes, 1, 2, 3)

	// Restart node 4 on a fresh endpoint. Like TestNodeRestartLifecycle,
	// re-convergence is not guaranteed (the peers' Decide messages predate
	// the restart); the batching-specific contract is that the fresh
	// incarnation's outbox works — it produces traffic with frames never
	// exceeding payloads and decodes inbound frames cleanly.
	sentBefore := nodes[4].Stats().Sent
	ep, err := mesh.ResetEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[4].Restart(ep); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[4].Stats().Sent <= sentBefore {
		if time.Now().After(deadline) {
			t.Fatal("restarted node sent nothing")
		}
		time.Sleep(time.Millisecond)
	}
	st := nodes[4].Stats()
	if st.SentFrames > st.Sent {
		t.Errorf("restarted node: %d frames exceed %d payloads", st.SentFrames, st.Sent)
	}
	if st.DecodeErrs != 0 {
		t.Errorf("restarted node decode errors: %d", st.DecodeErrs)
	}
	for _, err := range nodes[4].Errs() {
		t.Errorf("restarted node error: %v", err)
	}
}
