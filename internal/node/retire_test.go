package node_test

import (
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// waitRetired polls until the agreement's stack retired (decided,
// halted, released its state) or the budget runs out. The budget is
// deadline-aware like TestAgreementN10/N13: a heavy-tail coin schedule
// can push retirement well past the fixed waitFor, so when the test
// binary has more deadline left than waitFor, use it (minus teardown
// headroom) instead of rolling dice on the fixed budget.
func waitRetired(t *testing.T, id sim.ProcID, agr *node.Agreement) {
	t.Helper()
	budget := waitFor
	if dl, ok := t.Deadline(); ok {
		if until := time.Until(dl) - 10*time.Second; until > budget {
			budget = until
		}
	}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if agr.Retired() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %d: stack never retired after %v", id, budget)
}

// assertBaseline asserts a node that retired its agreement holds no live
// scope and no live protocol instance.
func assertBaseline(t *testing.T, nd *node.Node) {
	t.Helper()
	c, _ := nd.ServiceCounts()
	if c.Live != 0 || c.State.Total() != 0 {
		t.Fatalf("node %d: retired state not released: %+v", nd.ID(), c)
	}
}

// TestClusterRetirementReleasesState is the memory-bound regression
// test: an agreement that halts must not leave protocol state behind.
// Each session runs agreement to the halt point, the stack auto-retires,
// and the node must hold no live scope and no live instance — the
// interned-id free lists and slabs are released with the stack.
func TestClusterRetirementReleasesState(t *testing.T) {
	const n = 4
	nodes, agrs, mesh := startMeshCluster(t, n, nil)
	ids := []sim.ProcID{1, 2, 3, 4}
	waitAgreement(t, agrs, ids...)

	// Session 1: every node halts, retires, and reports zero live state.
	for _, id := range ids {
		waitRetired(t, id, agrs[id])
		assertBaseline(t, nodes[id])
	}

	// Sessions 2 and 3: bring the cluster up again — fresh nodes with
	// fresh agreements on reset endpoints — and assert the same release.
	codec := core.NewCodec()
	for session := 2; session <= 3; session++ {
		for _, id := range ids {
			nodes[id].Stop()
		}
		for _, id := range ids {
			ep, err := mesh.ResetEndpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := ep.Start(); err != nil {
				t.Fatal(err)
			}
			nodes[id], agrs[id] = newAgreementNode(t, node.Config{
				ID: id, N: n, Seed: int64(1000*session) + int64(id), Codec: codec,
			}, ep)
		}
		for _, id := range ids {
			startAgreement(t, nodes[id], agrs[id])
		}
		waitAgreement(t, agrs, ids...)
		for _, id := range ids {
			waitRetired(t, id, agrs[id])
			assertBaseline(t, nodes[id])
		}
	}
}

// TestRetirementKeepsDecision pins that retirement releases state but
// not the outcome: the decision survives it.
func TestRetirementKeepsDecision(t *testing.T) {
	const n = 4
	_, agrs, _ := startMeshCluster(t, n, nil)
	ids := []sim.ProcID{1, 2, 3, 4}
	want := waitAgreement(t, agrs, ids...)
	for _, id := range ids {
		waitRetired(t, id, agrs[id])
		v, ok := agrs[id].Decision()
		if !ok || v != want {
			t.Fatalf("node %d: decision after retirement = (%d,%v), want (%d,true)", id, v, ok, want)
		}
	}
}

// TestStateCountsBeforeHalt sanity-checks the accounting surface: a
// node stopped before deciding still holds its agreement's scope and
// reports its (nonzero) live state after shutdown.
func TestStateCountsBeforeHalt(t *testing.T) {
	mesh := transport.NewMesh(4)
	codec := core.NewCodec()
	ep, err := mesh.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	nd, agr := bootAgreement(t, node.Config{ID: 1, N: 4, Seed: 1, Codec: codec}, ep)
	// Alone in the mesh the node cannot decide; proposing still creates
	// local state.
	time.Sleep(50 * time.Millisecond)
	nd.Stop()
	c, _ := nd.ServiceCounts()
	if agr.Retired() {
		t.Fatal("undecided node must not retire")
	}
	if c.Live != 1 || c.State.Total() == 0 {
		t.Fatalf("expected the agreement's live protocol state on an undecided node, got %+v", c)
	}
}
