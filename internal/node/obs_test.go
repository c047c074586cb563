package node_test

import (
	"sync"
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/obs"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// TestMeshClusterWithObservability runs the real-concurrency mesh
// cluster with the full observability layer armed — shared metrics
// registry, per-node round tracers, and a snapshot reader racing the
// delivery goroutines (CI runs this under -race). After agreement it
// checks that the pull-based gauges agree with Stats(), the event
// counters saw the protocol — coin_flips matching the agreement's own
// coin count — no gauge is registered that no node feeds (coin_rounds,
// state_total, dropped_late_frames), and every tracer holds the
// expected round events.
func TestMeshClusterWithObservability(t *testing.T) {
	const n = 4
	reg := obs.NewRegistry()
	tracers := make([]*obs.Tracer, n+1)

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
		tracers[p] = obs.NewTracer(p, 2048)
		nodes[p], agrs[p] = newAgreementNode(t, node.Config{
			ID:      sim.ProcID(p),
			N:       n,
			Seed:    int64(1000 + p),
			Codec:   codec,
			Metrics: reg,
			Trace:   tracers[p],
		}, ep)
	}

	// Snapshot reader racing the delivery goroutines for the whole run.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			for name, v := range s.Gauges {
				if v < 0 {
					t.Errorf("gauge %s went negative: %d", name, v)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for p := 1; p <= n; p++ {
		startAgreement(t, nodes[p], agrs[p])
	}
	waitAgreement(t, agrs, 1, 2, 3, 4)
	close(stop)
	readerWG.Wait()

	// Freeze the counters (Stop is idempotent; Cleanup's second call is a
	// no-op) so the gauge/Stats comparison isn't racing live deliveries.
	for p := 1; p <= n; p++ {
		nodes[p].Stop()
	}
	s := reg.Snapshot()
	for p := 1; p <= n; p++ {
		st := nodes[p].Stats()
		prefix := "node" + string(rune('0'+p)) + "."
		checks := map[string]int64{
			prefix + "sent_payloads":    st.Sent,
			prefix + "recv_payloads":    st.Recv,
			prefix + "sent_frames":      st.SentFrames,
			prefix + "recv_frames":      st.RecvFrames,
			prefix + "sent_frame_bytes": st.SentFrameBytes,
		}
		for name, want := range checks {
			got, ok := s.Gauges[name]
			if !ok {
				t.Fatalf("gauge %s not registered", name)
			}
			if got != want {
				t.Errorf("%s = %d, Stats() says %d", name, got, want)
			}
		}
		if c := s.Counters[prefix+"decisions"]; c != 1 {
			t.Errorf("%sdecisions = %d, want 1", prefix, c)
		}
		if c := s.Counters[prefix+"rb_accepts"]; c == 0 {
			t.Errorf("%srb_accepts = 0, want nonzero", prefix)
		}
		if c, want := s.Counters[prefix+"coin_flips"], int64(agrs[p].CoinRounds()); c == 0 || c != want {
			t.Errorf("%scoin_flips = %d, want the agreement's %d (nonzero)", prefix, c, want)
		}
		for _, gone := range []string{"coin_rounds", "state_total", "dropped_late_frames"} {
			if _, ok := s.Gauges[prefix+gone]; ok {
				t.Errorf("gauge %s%s still registered", prefix, gone)
			}
		}

		var sawDecide, sawAccept bool
		for _, e := range tracers[p].Events() {
			switch e.Kind {
			case obs.KindDecide:
				sawDecide = true
			case obs.KindRBAccept:
				sawAccept = true
			}
		}
		if !sawDecide || !sawAccept {
			t.Errorf("node %d trace: decide=%v rb-accept=%v, want both (total %d events)",
				p, sawDecide, sawAccept, tracers[p].Total())
		}
	}
}
