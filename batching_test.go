package svssba_test

import (
	"testing"
	"time"

	"svssba"
)

// runClusterCounts executes one cluster run on the given transport and
// returns aggregate payload/frame counters over all nodes.
func runClusterCounts(t *testing.T, n, tt int, transport svssba.TransportKind, timeout time.Duration) (*svssba.ClusterResult, int64, int64) {
	t.Helper()
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N: n, T: tt, Seed: 7,
		Transport: transport,
		Timeout:   timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("agreement failed: %v", res.Decisions)
	}
	var payloads, frames int64
	for _, nd := range res.Nodes {
		payloads += nd.Sent
		frames += nd.SentFrames
	}
	return res, payloads, frames
}

// assertReduction checks the outbox's acceptance bar on one finished
// run: the physical message count (frames on the transport) must come
// in at least 40% below the logical payload count — the count a node
// without the outbox would put on the wire, one frame per payload.
func assertReduction(t *testing.T, n, tt int, res *svssba.ClusterResult, payloads, frames int64) {
	t.Helper()
	if payloads == 0 || frames == 0 {
		t.Fatalf("degenerate counters: payloads=%d frames=%d", payloads, frames)
	}
	reduction := 1 - float64(frames)/float64(payloads)
	t.Logf("n=%d t=%d: %d payloads in %d frames (%.1f%% reduction), elapsed %v",
		n, tt, payloads, frames, 100*reduction, res.Elapsed.Round(time.Millisecond))
	if reduction < 0.40 {
		t.Fatalf("frame reduction %.1f%% below the 40%% acceptance bar (%d payloads, %d frames)",
			100*reduction, payloads, frames)
	}
}

// TestClusterBatchingReduction asserts the acceptance bar at n=5/t=1,
// where a run is seconds long on any machine, on the default cluster
// configuration: every node runs wire v2 behind the coalescing outbox,
// so every node's traffic carries wire-v2 packs and leaves in fewer
// frames than payloads. See TestClusterBatchingReductionN7 for the
// ROADMAP scale.
func TestClusterBatchingReduction(t *testing.T) {
	res, payloads, frames := runClusterCounts(t, 5, 1, svssba.TransportChan, 10*time.Minute)
	assertReduction(t, 5, 1, res, payloads, frames)
	for _, nd := range res.Nodes {
		if l := nd.ByLayer["pack"]; l.SentMsgs == 0 || l.RecvMsgs == 0 {
			t.Errorf("node %d: no wire-v2 pack traffic (pack layer %+v)", nd.ID, l)
		}
		if nd.SentFrames >= nd.Sent {
			t.Errorf("node %d: %d frames for %d payloads (no coalescing)", nd.ID, nd.SentFrames, nd.Sent)
		}
	}

	// The per-layer split must stay consistent: layer payload and frame
	// group counts fold back to the node totals, and no layer can have
	// more wire groups than payloads.
	for _, nd := range res.Nodes {
		var msgs, groups int64
		for layer, l := range nd.ByLayer {
			if l.SentFrames > l.SentMsgs {
				t.Fatalf("node %d layer %s: %d frame groups exceed %d payloads", nd.ID, layer, l.SentFrames, l.SentMsgs)
			}
			msgs += l.SentMsgs
			groups += l.SentFrames
		}
		if msgs != nd.Sent {
			t.Fatalf("node %d: per-layer payloads %d != total %d", nd.ID, msgs, nd.Sent)
		}
		if groups < nd.SentFrames {
			// Every frame holds at least one group, so groups bound frames
			// from above.
			t.Fatalf("node %d: %d wire groups below %d frames", nd.ID, groups, nd.SentFrames)
		}
	}
}

// TestClusterBatchingReductionN7 measures the acceptance criterion at
// the n=7/t=2 scale the ROADMAP flagged as unaffordable. Live cluster durations have a heavy
// tail (round counts vary run to run on a loaded machine), so a run
// that cannot finish inside the budget skips instead of failing — the
// ratio assertion itself is carried by every run that completes, and by
// TestClusterBatchingReduction on every machine.
func TestClusterBatchingReductionN7(t *testing.T) {
	if testing.Short() {
		t.Skip("n=7/t=2 live run takes minutes; covered at n=5 in short mode")
	}
	res, err := svssba.RunCluster(svssba.ClusterConfig{
		N: 7, T: 2, Seed: 7,
		Transport: svssba.TransportChan,
		Timeout:   4 * time.Minute,
	})
	if err != nil {
		t.Skipf("run did not finish inside the budget (heavy-tail schedule or slow machine): %v", err)
	}
	if !res.Agreed {
		t.Fatalf("agreement failed: %v", res.Decisions)
	}
	var payloads, frames int64
	for _, nd := range res.Nodes {
		payloads += nd.Sent
		frames += nd.SentFrames
	}
	assertReduction(t, 7, 2, res, payloads, frames)
}

// TestClusterBatchingTCP runs a cluster over real localhost
// sockets: multi-payload batch frames must survive the length-prefixed
// TCP framing, reconnecting dialers included, and still show the frame
// reduction end to end.
func TestClusterBatchingTCP(t *testing.T) {
	_, payloads, frames := runClusterCounts(t, 4, 1, svssba.TransportTCP, 10*time.Minute)
	if frames >= payloads {
		t.Fatalf("no reduction over TCP: %d payloads, %d frames", payloads, frames)
	}
}
