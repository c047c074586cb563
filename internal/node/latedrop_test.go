package node_test

// Regression tests for the session-boundary drops: an envelope for a
// retired scope — or one the driver never opens — must die at the
// envelope (no inner decoding: a late echo storm or a crafted
// post-retirement payload costs a counter, not a pack/bundle unpack),
// and a Pack frame straddling a retired and a live scope must deliver
// only to the live one, counting the retired scope's payload as
// dropped-late.

import (
	"testing"
	"time"

	"svssba/internal/acs"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// settledStats returns nd's stats once its traffic stops moving.
func settledStats(nd *node.Node) node.Stats {
	prev := nd.Stats()
	for {
		time.Sleep(100 * time.Millisecond)
		cur := nd.Stats()
		if cur.RecvFrames == prev.RecvFrames && cur.Sent == prev.Sent {
			return cur
		}
		prev = cur
	}
}

// waitLateDrop waits until nd counted one more late payload than base,
// then asserts the payload was neither decoded nor counted as received.
func waitLateDrop(t *testing.T, nd *node.Node, base node.Stats) {
	t.Helper()
	deadline := time.Now().Add(waitFor)
	for {
		st := nd.Stats()
		if st.DroppedLatePayloads > base.DroppedLatePayloads {
			if got := st.DroppedLatePayloads - base.DroppedLatePayloads; got != 1 {
				t.Fatalf("%d late payloads, want 1", got)
			}
			if st.DecodeErrs != base.DecodeErrs {
				t.Fatalf("late payload was decoded: DecodeErrs %d -> %d", base.DecodeErrs, st.DecodeErrs)
			}
			if st.Recv != base.Recv {
				t.Fatalf("late payload counted as received: Recv %d -> %d", base.Recv, st.Recv)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("late payload never counted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendScoped sends to node 1, from ep, one frame holding a scope
// envelope whose body would not even decode.
func sendScoped(t *testing.T, ep transport.Transport, scope uint64) {
	t.Helper()
	frame, err := core.NewCodec().Encode(proto.Scoped{Scope: scope, Raw: []byte{0x03, 0x00, 'x', 'y', 'z', 0xde, 0xad}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, frame); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredNodeDropsFramesUndecoded runs an agreement to retirement,
// then injects a scope-0 envelope with a garbage body from a peer's
// (reset) endpoint: the retired scope must count a dropped-late payload
// and must NOT decode it — garbage that would otherwise be a decode
// error leaves DecodeErrs and Recv untouched.
func TestRetiredNodeDropsFramesUndecoded(t *testing.T) {
	nodes, agrs, mesh := startMeshCluster(t, 4, nil)
	ids := []sim.ProcID{1, 2, 3, 4}
	waitAgreement(t, agrs, ids...)
	for _, id := range ids {
		waitRetired(t, id, agrs[id])
	}
	// Only node 1 stays up, so nothing but the injection reaches it.
	for _, id := range ids[1:] {
		nodes[id].Stop()
	}
	base := settledStats(nodes[1])

	// Reuse peer 2's identity for the injection: frames must come from a
	// process in 1..N to get past the phantom-sender check.
	ep2, err := mesh.ResetEndpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep2.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep2.Close()
	sendScoped(t, ep2, 0)
	waitLateDrop(t, nodes[1], base)
}

// TestAgreementRefusesOtherScopes: an Agreement node hosts scope 0 and
// nothing else. A peer's envelope for any other scope opens nothing —
// before or after the agreement's own scope opened — and counts one
// late payload each time.
func TestAgreementRefusesOtherScopes(t *testing.T) {
	mesh := transport.NewMesh(4)
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
	defer ep2.Close()
	nd, agr := newAgreementNode(t, node.Config{ID: 1, N: 4, Seed: 1, Codec: core.NewCodec()}, ep1)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	expectLive := func(want int) {
		t.Helper()
		if c, _ := nd.ServiceCounts(); c.Live != want || c.Retired != 0 {
			t.Fatalf("scope table: %+v, want %d live and none retired", c, want)
		}
	}

	sendScoped(t, ep2, 7)
	waitLateDrop(t, nd, node.Stats{})
	expectLive(0)

	if err := agr.Propose(nd); err != nil {
		t.Fatal(err)
	}
	expectLive(1)
	// Alone, the node's proposal only loops back to itself; let that
	// settle first.
	base := settledStats(nd)
	sendScoped(t, ep2, 1)
	waitLateDrop(t, nd, base)
	expectLive(1)
}

// straddleDriver hosts trivial wire-v2 stacks and retires scope 1 the
// moment it is touched, leaving every other scope live. Like any
// driver, it refuses a scope it already retired (callbacks run on the
// node's one delivery goroutine, so the set needs no lock).
type straddleDriver struct{ retired map[uint64]bool }

func (d *straddleDriver) Open(s *node.Session) *core.Stack {
	if d.retired[s.Scope()] {
		return nil
	}
	st := core.NewStack(1, nil)
	return st
}
func (d *straddleDriver) Opened(*node.Session) {}
func (d *straddleDriver) MayRetire(s *node.Session) bool {
	if s.Scope() != 1 {
		return false
	}
	d.retired[1] = true
	return true
}

// TestServiceBatchStraddlesRetiredScope sends the same Pack frame — one
// core pack for scope 1, one for scope 2 — twice. The first
// delivery opens both scopes and retires scope 1; on the second frame,
// scope 1's payload must be dropped at the envelope (counted late,
// inner pack never decoded) while scope 2's still delivers.
func TestServiceBatchStraddlesRetiredScope(t *testing.T) {
	mesh := transport.NewMesh(2)
	codec := core.NewCodec()
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
	nd, err := node.New(node.Config{
		ID: 1, N: 2, Seed: 1, Codec: codec,
		Service: &straddleDriver{retired: make(map[uint64]bool)},
	}, ep1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	defer ep2.Close()

	pack := proto.Pack{Items: []sim.Payload{
		rb.Msg{Origin: 2, Tag: proto.Tag{Proto: proto.ProtoRB}, Value: []byte("hi")},
	}}
	frame, err := codec.Encode(proto.Pack{Items: []sim.Payload{
		proto.Scoped{Scope: 1, Inner: pack},
		proto.Scoped{Scope: 2, Inner: pack},
	}})
	if err != nil {
		t.Fatal(err)
	}

	waitStats := func(cond func(node.Stats) bool, what string) node.Stats {
		t.Helper()
		deadline := time.Now().Add(waitFor)
		for {
			st := nd.Stats()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened: %+v errs=%v", what, st, nd.Errs())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if err := ep2.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	waitStats(func(st node.Stats) bool { return st.RecvByKind[proto.KindPack] == 2 }, "first frame delivery")
	// ServiceCounts runs on the delivery goroutine, so once it reports
	// scope 1 retired the first burst (including its retirement pass) is
	// fully over.
	deadline := time.Now().Add(waitFor)
	for {
		c, ok := nd.ServiceCounts()
		if !ok {
			t.Fatal("not a service node")
		}
		if c.Retired == 1 && c.Live == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scope 1 never retired: %+v", c)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The live stacks react to the delivered echoes (including a
	// self-loopback frame whose scope-1 envelope also counts as a late
	// payload), so exact counter values are coupling, not contract. Let
	// the reaction traffic settle, snapshot, and assert deltas.
	base := settledStats(nd)

	if err := ep2.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	// The straddling frame must deliver exactly one pack (the live scope
	// 2) and drop exactly one payload late (the retired scope 1) — if the
	// retired scope's pack were still decoded and delivered, the pack
	// count would advance by two.
	st := waitStats(func(st node.Stats) bool {
		return st.DroppedLatePayloads == base.DroppedLatePayloads+1 &&
			st.RecvByKind[proto.KindPack] == base.RecvByKind[proto.KindPack]+1
	}, "late drop for scope 1 plus live delivery for scope 2")
	if st.RecvFrames != base.RecvFrames+1 {
		t.Fatalf("RecvFrames advanced %d -> %d, want exactly one more", base.RecvFrames, st.RecvFrames)
	}
	if st.DecodeErrs != base.DecodeErrs {
		t.Fatalf("unexpected decode errors: %d -> %d", base.DecodeErrs, st.DecodeErrs)
	}
}

// TestInventedScopesCostNothing: nodes 1–3 run one ACS session to
// completion, then a peer on node 4's endpoint makes up scope ids —
// slots past n, session 0, and every slot of the completed session —
// and sends node 1 10,000 envelopes for them, with bodies that would
// not even decode. Each must die at the envelope as a late payload:
// nothing decoded, no scope opened, and the node's table and the
// driver's memory exactly as they were.
func TestInventedScopesCostNothing(t *testing.T) {
	const n, envelopes, perFrame = 4, 10000, 100
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	var drvs [n]*acs.Driver
	var nodes [n]*node.Node
	for i := 1; i < n; i++ {
		ep, err := mesh.Endpoint(sim.ProcID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		drv, err := acs.New(acs.Config{N: n, Self: sim.ProcID(i)})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{ID: sim.ProcID(i), N: n, Seed: int64(i), Codec: codec, Service: drv}, ep)
		if err != nil {
			t.Fatal(err)
		}
		drv.Bind(nd)
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		drvs[i], nodes[i] = drv, nd
	}
	if err := drvs[1].Submit([]byte("v")); err != nil {
		t.Fatal(err)
	}
	quiet := func() bool {
		for i := 1; i < n; i++ {
			c, _ := nodes[i].ServiceCounts()
			if drvs[i].Completed() != 1 || drvs[i].InFlight() != 0 || c.Live != 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(waitFor); !quiet(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the session never completed and retired on nodes 1-3")
		}
	}
	// The session's last messages may still be landing: baseline once
	// node 1's counters stop moving.
	base := settledStats(nodes[1])
	baseMem := drvs[1].Remembered()
	baseCounts, _ := nodes[1].ServiceCounts()

	var scopes []uint64
	for slot := n + 1; slot <= 0xff; slot++ {
		scopes = append(scopes, acs.ScopeOf(2, slot))
	}
	for slot := 0; slot <= n; slot++ {
		scopes = append(scopes, acs.ScopeOf(0, slot), acs.ScopeOf(1, slot))
	}
	ep4, err := mesh.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep4.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep4.Close()
	garbage := []byte{0xff, 0xff, 'n', 'o', 'p', 'e'}
	for sent := 0; sent < envelopes; sent += perFrame {
		batch := make([]sim.Payload, perFrame)
		for k := range batch {
			batch[k] = proto.Scoped{Scope: scopes[(sent+k)%len(scopes)], Raw: garbage}
		}
		frame, err := codec.Encode(proto.Pack{Items: batch})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep4.Send(1, frame); err != nil {
			t.Fatal(err)
		}
	}

	var st node.Stats
	for deadline := time.Now().Add(waitFor); ; time.Sleep(2 * time.Millisecond) {
		if st = nodes[1].Stats(); st.DroppedLatePayloads-base.DroppedLatePayloads >= envelopes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d invented envelopes counted late", st.DroppedLatePayloads-base.DroppedLatePayloads, envelopes)
		}
	}
	if got := st.DroppedLatePayloads - base.DroppedLatePayloads; got != envelopes {
		t.Errorf("%d late payloads, want exactly the %d invented envelopes", got, envelopes)
	}
	if st.DecodeErrs != base.DecodeErrs || st.Recv != base.Recv {
		t.Errorf("invented envelopes were decoded: DecodeErrs %d -> %d, Recv %d -> %d", base.DecodeErrs, st.DecodeErrs, base.Recv, st.Recv)
	}
	if c, _ := nodes[1].ServiceCounts(); c.Live != baseCounts.Live || c.Retired != baseCounts.Retired {
		t.Errorf("scope table moved: live %d -> %d, retired %d -> %d", baseCounts.Live, c.Live, baseCounts.Retired, c.Retired)
	}
	if got := drvs[1].Remembered(); got != baseMem {
		t.Errorf("driver remembers %d sessions after the attack, %d before", got, baseMem)
	}
}
