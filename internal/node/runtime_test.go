package node

// White-box tests for the node runtime: one goroutine per node, every
// scope delivered inline on it, and the Inject contract.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// stubDriver hosts trivial wire-v2 stacks that never retire.
type stubDriver struct{}

func (stubDriver) Open(s *Session) *core.Stack {
	st := core.NewStack(1, nil)
	return st
}
func (stubDriver) Opened(*Session)         {}
func (stubDriver) MayRetire(*Session) bool { return false }

// startStubNode boots node 1 of a 2-endpoint mesh on stubDriver and
// returns it with endpoint 2, from which a test can send it traffic.
// lanes sets the deprecated Config.Lanes, which the node ignores.
func startStubNode(t *testing.T, lanes int) (*Node, transport.Transport) {
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
	nd, err := New(Config{ID: 1, N: 2, Seed: 1, Codec: core.NewCodec(), Service: stubDriver{}, Lanes: lanes}, ep1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Stop(); ep1.Close(); ep2.Close() })
	return nd, ep2
}

// packFrame encodes one scope envelope carrying an empty pack.
func packFrame(t *testing.T, codec *proto.Codec, scope uint64) []byte {
	t.Helper()
	frame, err := codec.Encode(proto.Scoped{Scope: scope, Inner: proto.Pack{Items: []sim.Payload{}}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// nodeGoroutines counts the live goroutines started from package node,
// once the count holds still (a stopped node's loop may take a moment
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

// deliverPacks sends perScope empty packs to each of scopes scopes
// from peer and waits until nd delivered every one of them and hosts
// each scope live.
func deliverPacks(t *testing.T, nd *Node, peer transport.Transport, scopes, perScope int) {
	t.Helper()
	codec := core.NewCodec()
	for k := 0; k < perScope; k++ {
		for s := uint64(1); s <= uint64(scopes); s++ {
			if err := peer.Send(1, packFrame(t, codec, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := int64(scopes * perScope)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := nd.Stats()
		if st.RecvByKind[proto.KindPack] == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d packs; errs=%v", st.RecvByKind[proto.KindPack], want, nd.Errs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if counts, ok := nd.ServiceCounts(); !ok || counts.Live != scopes {
		t.Fatalf("live scopes = %d (ok=%v), want %d", counts.Live, ok, scopes)
	}
}

// TestNodeGoroutines pins the runtime's shape: a started node hosting
// 16 live scopes runs exactly one goroutine, its ingress loop, and
// after Stop it runs none.
func TestNodeGoroutines(t *testing.T) {
	before := nodeGoroutines()
	nd, peer := startStubNode(t, 0)
	const scopes = 16
	deliverPacks(t, nd, peer, scopes, 1)
	if got := nodeGoroutines() - before; got != 1 {
		t.Fatalf("a node hosting %d scopes runs %d goroutines, want 1", scopes, got)
	}
	nd.Stop()
	if got := nodeGoroutines() - before; got != 0 {
		t.Fatalf("a stopped node runs %d goroutines, want 0", got)
	}
}

// TestLaneGoroutines pins the deprecated Config.Lanes shim: whatever
// lane count a caller still sets, the node runs one goroutine and its
// ring gauges read 0.
func TestLaneGoroutines(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			before := nodeGoroutines()
			nd, peer := startStubNode(t, lanes)
			deliverPacks(t, nd, peer, 16, 1)
			if got := nodeGoroutines() - before; got != 1 {
				t.Fatalf("a node configured with Lanes=%d runs %d goroutines, want 1", lanes, got)
			}
			if st := nd.Stats(); st.RingWaits != 0 || st.RingDrops != 0 || st.RingHighWater != 0 {
				t.Fatalf("ring gauges waits=%d drops=%d high=%d, want all 0", st.RingWaits, st.RingDrops, st.RingHighWater)
			}
		})
	}
}

// TestMultiLaneScopedDelivery sends 16 scopes × 8 packs, interleaved by
// scope, to a node configured with the deprecated Lanes: 4 and checks
// that its one goroutine delivers every pack and hosts all 16 scopes.
func TestMultiLaneScopedDelivery(t *testing.T) {
	nd, peer := startStubNode(t, 4)
	deliverPacks(t, nd, peer, 16, 8)
}

// TestInjectContract pins Inject's promise while scoped traffic flows
// and several goroutines inject concurrently: every accepted thunk runs
// exactly once — the ones accepted just before Stop included — and
// Inject fails once the node stopped.
func TestInjectContract(t *testing.T) {
	nd, peer := startStubNode(t, 0)

	// Scoped traffic from the peer for the whole test.
	codec := core.NewCodec()
	var frames [8][]byte
	for s := range frames {
		frames[s] = packFrame(t, codec, uint64(s))
	}
	stopTraffic := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for s := 0; ; s++ {
			select {
			case <-stopTraffic:
				return
			default:
			}
			_ = peer.Send(1, frames[s%len(frames)])
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// ran counts each thunk's runs. Thunks run only on the node's
	// delivery goroutine, and Stop waits for it to exit, so the map
	// needs no lock.
	type id struct{ g, i int }
	ran := make(map[id]int)
	const injectors = 4
	accepted := make([]int, injectors+1) // slot injectors is the main goroutine
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := nd.Inject(func() { ran[id{g, i}]++ }); err != nil {
					return // the node stopped; every later Inject fails too
				}
				accepted[g]++
				time.Sleep(10 * time.Microsecond)
			}
		}(g)
	}

	// Let thunks and traffic interleave for a while. Then hold the
	// delivery goroutine in one slow thunk and queue a last one behind
	// it, so the last is still queued when Stop runs.
	deadline := time.Now().Add(10 * time.Second)
	for nd.Stats().RecvByKind[proto.KindPack] < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic never flowed; errs=%v", nd.Errs())
		}
		time.Sleep(time.Millisecond)
	}
	self := injectors
	running := make(chan struct{})
	if err := nd.Inject(func() {
		close(running)
		time.Sleep(20 * time.Millisecond)
		ran[id{self, 0}]++
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := nd.Inject(func() { ran[id{self, 1}]++ }); err != nil {
		t.Fatal(err)
	}
	accepted[self] = 2
	nd.Stop()
	wg.Wait()
	close(stopTraffic)
	traffic.Wait()

	if err := nd.Inject(func() { t.Error("a thunk injected after Stop ran") }); err == nil {
		t.Fatal("Inject after Stop returned no error")
	}
	total := 0
	for g, n := range accepted {
		total += n
		for i := 0; i < n; i++ {
			if c := ran[id{g, i}]; c != 1 {
				t.Errorf("injector %d thunk %d ran %d times, want once", g, i, c)
			}
		}
	}
	if len(ran) != total {
		t.Errorf("%d thunks ran, %d were accepted", len(ran), total)
	}
	if total == accepted[self] {
		t.Error("no injector thunk was accepted")
	}
}
