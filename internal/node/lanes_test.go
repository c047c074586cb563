package node

// White-box tests for the lane runtime's moving parts: the bounded
// ring's FIFO order and backpressure accounting, the control queue's
// drain-at-close guarantee, scope→lane pinning under a LaneKey, and one
// goroutine per lane with the ingress as lane 0.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

func testLane() *lane {
	return newLane(&Node{cfg: Config{ID: 7}}, 0, nil, nil)
}

// TestLaneRingFIFO pins the ring's delivery order: items drain in push
// order across multiple batch claims — the property that keeps every
// scope's per-sender message order intact through the ring hop.
func TestLaneRingFIFO(t *testing.T) {
	ln := testLane()
	const total = 1000
	go func() {
		for i := 0; i < total; i++ {
			ln.push(laneItem{from: 2, sc: proto.Scoped{Scope: uint64(i)}})
		}
	}()
	var items []laneItem
	var thunks []func()
	seen := 0
	for seen < total {
		items, thunks, _ = ln.takeBatch(items, thunks)
		for _, it := range items {
			if it.sc.Scope != uint64(seen) {
				t.Fatalf("item %d out of order: scope %d", seen, it.sc.Scope)
			}
			seen++
		}
	}
}

// TestLaneRingBackpressure fills the ring to capacity and verifies the
// producer blocks (counted as a wait episode, not a drop) until the
// worker claims a batch, and that the high-water mark saw the full
// ring.
func TestLaneRingBackpressure(t *testing.T) {
	ln := testLane()
	for i := 0; i < laneRingCap; i++ {
		ln.push(laneItem{from: 2})
	}
	unblocked := make(chan struct{})
	go func() {
		ln.push(laneItem{from: 2, sc: proto.Scoped{Scope: 999}})
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("push past capacity did not block")
	case <-time.After(50 * time.Millisecond):
	}

	items, thunks, _ := ln.takeBatch(nil, nil)
	if len(items) != laneRingCap {
		t.Fatalf("claimed %d items, want %d", len(items), laneRingCap)
	}
	_ = thunks
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked push never completed after the ring drained")
	}
	waits, drops, hw := ln.ringStats()
	if waits != 1 {
		t.Fatalf("waits = %d, want exactly 1 backpressure episode", waits)
	}
	if drops != 0 {
		t.Fatalf("drops = %d on a live lane, want 0", drops)
	}
	if hw != laneRingCap {
		t.Fatalf("highWater = %d, want %d", hw, laneRingCap)
	}
}

// TestLaneCtlDrainAtClose pins the Inject contract's multi-lane form:
// control thunks accepted before close are still handed out by
// takeBatch after close, a post-close enqueue fails, and a post-close
// push is counted as a drop.
func TestLaneCtlDrainAtClose(t *testing.T) {
	ln := testLane()
	ran := 0
	for i := 0; i < 3; i++ {
		if err := ln.enqueueCtl(func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	ln.close()
	if err := ln.enqueueCtl(func() {}); err == nil {
		t.Fatal("enqueueCtl succeeded on a closed lane")
	}
	ln.push(laneItem{from: 2})
	items, thunks, closed := ln.takeBatch(nil, nil)
	if !closed {
		t.Fatal("takeBatch did not report the lane closed")
	}
	if len(items) != 0 {
		t.Fatalf("closed lane handed out %d ring items", len(items))
	}
	for _, fn := range thunks {
		fn()
	}
	if ran != 3 {
		t.Fatalf("ran %d accepted thunks, want all 3", ran)
	}
	if _, drops, _ := ln.ringStats(); drops != 1 {
		t.Fatalf("drops = %d, want the post-close push counted", drops)
	}
}

// laneTestDriver hosts trivial wire-v2 stacks that never retire.
type laneTestDriver struct{}

func (laneTestDriver) Open(s *Session) *core.Stack {
	st := core.NewStack(1, nil)
	st.EnableWireV2()
	return st
}
func (laneTestDriver) Opened(*Session)         {}
func (laneTestDriver) MayRetire(*Session) bool { return false }

// startLaneNode boots node 1 of a 2-endpoint mesh in service mode with
// the given lane config.
func startLaneNode(t *testing.T, lanes int, laneKey func(uint64) uint64) *Node {
	t.Helper()
	mesh := transport.NewMesh(2)
	ep1, err := mesh.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := mesh.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ep2.Start(); err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		ID: 1, N: 2, Seed: 1, Codec: core.NewCodec(),
		Service: laneTestDriver{}, Lanes: lanes, LaneKey: laneKey,
	}, ep1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Stop(); ep1.Close(); ep2.Close() })
	return nd
}

// TestLaneForPinsLaneKey verifies scope→lane pinning: with a LaneKey
// collapsing a scope to its sid, every slot of one sid lands on the
// same lane (the invariant OpenPeer relies on), and distinct sids
// actually spread across lanes.
func TestLaneForPinsLaneKey(t *testing.T) {
	nd := startLaneNode(t, 4, func(scope uint64) uint64 { return scope >> 8 })
	used := make(map[int]bool)
	for sid := uint64(1); sid <= 64; sid++ {
		ref := nd.laneFor(sid << 8)
		used[ref.idx] = true
		for slot := uint64(1); slot <= 4; slot++ {
			if ln := nd.laneFor(sid<<8 | slot); ln != ref {
				t.Fatalf("sid %d slot %d on lane %d, plane on lane %d", sid, slot, ln.idx, ref.idx)
			}
		}
	}
	if len(used) < 2 {
		t.Fatalf("64 sids all hashed to %d lane(s), want spread", len(used))
	}
}

// TestLanesConfigValidation pins the config surface: negative lane
// counts and multi-lane without service mode are rejected; the zero
// value means one lane.
func TestLanesConfigValidation(t *testing.T) {
	mesh := transport.NewMesh(2)
	ep, err := mesh.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: 1, N: 2, Seed: 1, Codec: core.NewCodec(), Lanes: -1}, ep); err == nil {
		t.Fatal("negative lane count accepted")
	}
	if _, err := New(Config{ID: 1, N: 2, Seed: 1, Codec: core.NewCodec(), Lanes: 2}, ep); err == nil {
		t.Fatal("multi-lane without service mode accepted")
	}
	nd, err := New(Config{ID: 1, N: 2, Seed: 1, Codec: core.NewCodec()}, ep)
	if err != nil {
		t.Fatal(err)
	}
	if nd.laneCount != 1 {
		t.Fatalf("default lane count %d, want 1", nd.laneCount)
	}
}

// nodeGoroutines counts the live goroutines started from package node,
// once the count holds still (a stopped node's loops may take a moment
// to exit).
func nodeGoroutines() int {
	count := func() int {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				return strings.Count(string(buf[:n]), "created by svssba/internal/node.")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	prev := count()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := count()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestLaneGoroutines pins the one-loop structure: a service node with k
// lanes runs exactly k goroutines — the ingress, which is lane 0, plus a
// worker for each further lane, and no router — a single-stack node runs
// one, and a one-lane node never touches a ring.
func TestLaneGoroutines(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			before := nodeGoroutines()
			nd := startLaneNode(t, lanes, nil)
			if got := nodeGoroutines() - before; got != lanes {
				t.Fatalf("a %d-lane node started %d goroutines, want %d", lanes, got, lanes)
			}
			st := nd.Stats()
			if st.Lanes != lanes {
				t.Fatalf("Stats.Lanes = %d, want %d", st.Lanes, lanes)
			}
			if lanes == 1 && (st.RingWaits != 0 || st.RingDrops != 0 || st.RingHighWater != 0) {
				t.Fatalf("one-lane node reports ring traffic: %+v", st)
			}
		})
	}
	t.Run("single-stack", func(t *testing.T) {
		before := nodeGoroutines()
		mesh := transport.NewMesh(2)
		ep, err := mesh.Endpoint(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{ID: 1, N: 2, Seed: 1, Codec: core.NewCodec()}, ep)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		if got := nodeGoroutines() - before; got != 1 {
			t.Fatalf("a single-stack node started %d goroutines, want 1", got)
		}
	})
}

// TestMultiLaneScopedDelivery drives scoped traffic for many scopes
// into a 4-lane node from a peer endpoint and verifies every payload is
// delivered (counted per kind) with zero ring drops and the scopes
// distributed across lanes.
func TestMultiLaneScopedDelivery(t *testing.T) {
	nd := startLaneNode(t, 4, nil)

	// Self-loop frames: the node's own endpoint addresses itself, so
	// From=1 passes the phantom-sender check and the ingress fans the
	// envelopes out by scope hash.
	codec := core.NewCodec()
	const scopes = 16
	const perScope = 8
	for k := 0; k < perScope; k++ {
		for s := uint64(1); s <= scopes; s++ {
			pack := proto.Pack{Items: []sim.Payload{}}
			frame, err := codec.EncodeBatch([]sim.Payload{proto.Scoped{Scope: s, Inner: pack}})
			if err != nil {
				t.Fatal(err)
			}
			if err := nd.tr.Send(1, frame); err != nil {
				t.Fatal(err)
			}
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := nd.Stats()
		if st.RecvByKind[proto.KindPack] == scopes*perScope {
			if st.RingDrops != 0 {
				t.Fatalf("ring drops on a live run: %d", st.RingDrops)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d packs; errs=%v", st.RecvByKind[proto.KindPack], scopes*perScope, nd.Errs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	counts, ok := nd.ServiceCounts()
	if !ok || counts.Live != scopes {
		t.Fatalf("live scopes = %d (ok=%v), want %d", counts.Live, ok, scopes)
	}
	// ServiceCounts just synchronized with every lane worker, so the
	// session tables are quiescent and safe to read directly.
	lanesUsed := 0
	for _, ln := range nd.lanes {
		if len(ln.sessions) > 0 {
			lanesUsed++
		}
	}
	if lanesUsed < 2 {
		t.Fatalf("%d scopes all landed on %d lane(s)", scopes, lanesUsed)
	}
}
