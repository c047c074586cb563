package node_test

import (
	"sync/atomic"
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// TestBatchingNodeRestart checks the outbox across the lifecycle: after
// a node crashes, a fresh incarnation on a fresh endpoint of the same
// identity batches again.
func TestBatchingNodeRestart(t *testing.T) {
	const n = 4
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	nodes := make([]*node.Node, n+1)
	agrs := make([]*node.Agreement, n+1)
	for p := 1; p <= n; p++ {
		ep, err := mesh.Endpoint(sim.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[p], agrs[p] = newAgreementNode(t, node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(3000 + p),
			Codec: codec,
		}, ep)
	}
	for p := 1; p <= n; p++ {
		startAgreement(t, nodes[p], agrs[p])
	}

	nodes[4].Crash()
	waitAgreement(t, agrs, 1, 2, 3)

	// Bring node 4 back as a fresh Node on a fresh endpoint. Like
	// TestNodeRestartLifecycle, re-convergence is not guaranteed (its
	// peers retired the agreement first); the batching-specific contract
	// is that the fresh incarnation's outbox works — it produces traffic
	// with frames never exceeding payloads and decodes inbound frames
	// cleanly.
	ep, err := mesh.ResetEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	nd, _ := bootAgreement(t, node.Config{ID: 4, N: n, Seed: 3104, Codec: codec}, ep)
	deadline := time.Now().Add(10 * time.Second)
	for nd.Stats().Sent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fresh incarnation sent nothing")
		}
		time.Sleep(time.Millisecond)
	}
	st := nd.Stats()
	if st.SentFrames > st.Sent {
		t.Errorf("fresh incarnation: %d frames exceed %d payloads", st.SentFrames, st.Sent)
	}
	if st.DecodeErrs != 0 {
		t.Errorf("fresh incarnation decode errors: %d", st.DecodeErrs)
	}
	for _, err := range nd.Errs() {
		t.Errorf("fresh incarnation error: %v", err)
	}
}

// countingLink counts the frames and bytes a node hands its transport.
type countingLink struct {
	transport.Transport
	frames, bytes atomic.Int64
}

func (l *countingLink) Send(to sim.ProcID, data []byte) error {
	l.frames.Add(1)
	l.bytes.Add(int64(len(data)))
	return l.Transport.Send(to, data)
}

// TestSentFramesMatchTransport checks the physical ledger against the
// transport: on a chan-mesh agreement cluster built as RunCluster builds
// it, every node's SentFrames and SentFrameBytes equal the frames and
// bytes its transport was handed.
func TestSentFramesMatchTransport(t *testing.T) {
	const n = 4
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	nodes := make([]*node.Node, n+1)
	agrs := make([]*node.Agreement, n+1)
	links := make([]*countingLink, n+1)
	for p := 1; p <= n; p++ {
		ep, err := mesh.Endpoint(sim.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		links[p] = &countingLink{Transport: ep}
		nodes[p], agrs[p] = newAgreementNode(t, node.Config{
			ID:    sim.ProcID(p),
			N:     n,
			Seed:  int64(5000 + p),
			Codec: codec,
		}, links[p])
	}
	for p := 1; p <= n; p++ {
		startAgreement(t, nodes[p], agrs[p])
	}
	waitAgreement(t, agrs, 1, 2, 3, 4)
	for p := 1; p <= n; p++ {
		nodes[p].Stop() // no send after this
	}
	for p := 1; p <= n; p++ {
		st := nodes[p].Stats()
		if st.SentFrames == 0 {
			t.Errorf("node %d sent no frames", p)
		}
		if f, b := links[p].frames.Load(), links[p].bytes.Load(); st.SentFrames != f || st.SentFrameBytes != b {
			t.Errorf("node %d: ledger %d frames / %d B, transport carried %d / %d B", p, st.SentFrames, st.SentFrameBytes, f, b)
		}
	}
}
