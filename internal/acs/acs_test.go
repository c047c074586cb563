package acs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"svssba/internal/aba"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/obs"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
	"svssba/internal/transport"
)

const (
	testN = 4
	testT = 1
)

// decisionLog collects one node's decisions (OnDecide runs on the
// node's delivery goroutine; the test reads from its own).
type decisionLog struct {
	mu   sync.Mutex
	decs []Decision
	at   []time.Time // when each decision was reported, parallel to decs
}

func (l *decisionLog) add(d Decision) {
	l.mu.Lock()
	l.decs = append(l.decs, d)
	l.at = append(l.at, time.Now())
	l.mu.Unlock()
}

func (l *decisionLog) reportedAt(k int) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.at[k]
}

func (l *decisionLog) all() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Decision(nil), l.decs...)
}

// testCluster is n=4 service nodes over an in-process chan mesh, wired
// the way svssba.StartService wires them. Index 0 is unused.
type testCluster struct {
	drvs    [testN + 1]*Driver
	nodes   [testN + 1]*node.Node
	tracers [testN + 1]*obs.Tracer
	logs    [testN + 1]*decisionLog
	live    []int
	mesh    *transport.Mesh
	codec   *proto.Codec

	holdMu sync.Mutex
	holds  map[uint64]*heldSession // holdProposalsUntilAll's, by session
}

// tamperFor builds node i's Config.Tamper once its driver exists.
type tamperFor func(c *testCluster, i int) func(sid uint64, slot int, st *core.Stack)

// clusterOpts shapes a test cluster. A node in down is never built and
// its endpoint never started, so traffic to it vanishes. A node in late
// is built on a started endpoint but not started: its inbound queues up
// until startLate. Lanes sets the deprecated node.Config.Lanes, which
// nodes ignore; the bench harness still sets it, with LaneKey.
type clusterOpts struct {
	pool   bool
	down   map[int]bool
	late   map[int]bool
	tamper tamperFor
	lanes  int
}

func startTestCluster(t *testing.T, o clusterOpts) *testCluster {
	t.Helper()
	mesh := transport.NewMesh(testN)
	codec := core.NewCodec()
	c := &testCluster{mesh: mesh, codec: codec, holds: make(map[uint64]*heldSession)}
	for i := 1; i <= testN; i++ {
		if o.down[i] {
			continue
		}
		ep, err := mesh.Endpoint(sim.ProcID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		c.logs[i] = &decisionLog{}
		cfg := Config{
			N: testN, T: testT, Self: sim.ProcID(i),
			Window: 4, Pool: o.pool, PoolRounds: 4,
			OnDecide: c.logs[i].add,
		}
		if o.tamper != nil {
			cfg.Tamper = o.tamper(c, i)
		}
		drv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.tracers[i] = obs.NewTracer(i, 1<<14)
		nd, err := node.New(node.Config{
			ID: sim.ProcID(i), N: testN, T: testT, Seed: int64(100 + i),
			Codec: codec, Service: drv, Trace: c.tracers[i],
			Lanes: o.lanes, LaneKey: LaneKey,
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		drv.Bind(nd)
		t.Cleanup(nd.Stop)
		c.drvs[i], c.nodes[i] = drv, nd
		if !o.late[i] {
			c.startLate(t, i)
		}
	}
	return c
}

// startLate starts node i and counts it live.
func (c *testCluster) startLate(t *testing.T, i int) {
	t.Helper()
	if err := c.nodes[i].Start(); err != nil {
		t.Fatal(err)
	}
	c.live = append(c.live, i)
}

func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: condition never held", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drain waits until every live node completed the same, nonzero number
// of sessions with nothing queued or in flight, then until every scope
// — the planes included — retired, and asserts the driver is back at
// baseline: no session in flight, no session record, no completed sid
// waiting above the mark, no pool state.
func (c *testCluster) drain(t *testing.T) {
	t.Helper()
	poll(t, "quiescence", func() bool {
		want := c.drvs[c.live[0]].Completed()
		if want == 0 {
			return false
		}
		for _, i := range c.live {
			d := c.drvs[i]
			if d.QueueLen() != 0 || d.InFlight() != 0 || d.Completed() != want {
				return false
			}
		}
		return true
	})
	poll(t, "scopes retire", func() bool {
		for _, i := range c.live {
			sc, ok := c.nodes[i].ServiceCounts()
			if !ok || sc.Live != 0 || sc.State.Total() != 0 {
				return false
			}
		}
		return true
	})
	for _, i := range c.live {
		d := c.drvs[i]
		if d.InFlight() != 0 {
			t.Errorf("node %d: inFlight=%d after drain", i, d.InFlight())
		}
		if left := d.Remembered(); left != 0 {
			t.Errorf("node %d: %d sessions remembered after the drain, want none", i, left)
		}
		if ps, ok := d.PoolStats(); ok && (ps.Live != 0 || ps.Depth != 0 || ps.Reserved != 0 || ps.DoubleHandouts != 0) {
			t.Errorf("node %d: pool not drained: %+v", i, ps)
		}
		if errs := c.nodes[i].Errs(); len(errs) > 0 {
			t.Errorf("node %d: runtime error: %v", i, errs[0])
		}
	}
}

// assertSameDecisions checks the ACS contract across the live nodes and
// returns node live[0]'s decisions by session.
func (c *testCluster) assertSameDecisions(t *testing.T) map[uint64]Decision {
	t.Helper()
	ref := make(map[uint64]Decision)
	for _, d := range c.logs[c.live[0]].all() {
		if _, dup := ref[d.Session]; dup {
			t.Errorf("node %d decided session %d twice", c.live[0], d.Session)
		}
		ref[d.Session] = d
		if len(d.Members) < testN-testT {
			t.Errorf("session %d: subset %v smaller than n-t", d.Session, d.Members)
		}
	}
	for _, i := range c.live[1:] {
		decs := c.logs[i].all()
		if len(decs) != len(ref) {
			t.Errorf("node %d decided %d sessions, node %d decided %d", i, len(decs), c.live[0], len(ref))
		}
		for _, d := range decs {
			r, ok := ref[d.Session]
			if !ok {
				t.Errorf("node %d decided session %d, node %d did not", i, d.Session, c.live[0])
				continue
			}
			if fmt.Sprint(d.Members) != fmt.Sprint(r.Members) {
				t.Errorf("session %d: node %d members %v, node %d members %v", d.Session, i, d.Members, c.live[0], r.Members)
				continue
			}
			for k := range r.Values {
				if !bytes.Equal(d.Values[k], r.Values[k]) {
					t.Errorf("session %d member %d: values differ across nodes", d.Session, r.Members[k])
				}
			}
		}
	}
	return ref
}

// assertEachValueDecidedOnce checks that every submitted value sits in
// exactly one decision, under its submitter's member slot.
func assertEachValueDecidedOnce(t *testing.T, decs map[uint64]Decision, submitted map[int]string) {
	t.Helper()
	seen := make(map[int]int)
	for _, d := range decs {
		for k, m := range d.Members {
			if len(d.Values[k]) == 0 {
				continue // joined on peer traffic with nothing queued
			}
			if string(d.Values[k]) != submitted[int(m)] {
				t.Errorf("session %d member %d: value %q, submitted %q", d.Session, m, d.Values[k], submitted[int(m)])
			}
			seen[int(m)]++
		}
	}
	for i := range submitted {
		if seen[i] != 1 {
			t.Errorf("node %d's value decided %d times, want 1", i, seen[i])
		}
	}
}

// abaTrace is what one node's tracer saw in one agreement scope.
type abaTrace struct {
	roundOneEntries int
	roundAtDecide   uint64 // last round entered before the decide event
	decided         bool
	value           uint64
	// onesBefore is the number of value-1 decide events the node had
	// recorded, across the session, when this scope entered round 1.
	onesBefore int
}

// abaTraces cuts node i's agreement scopes out of its tracer.
func (c *testCluster) abaTraces(i int) map[uint64]*abaTrace {
	out := make(map[uint64]*abaTrace)
	ones := make(map[uint64]int)         // by session
	lastRound := make(map[uint64]uint64) // by scope
	for _, e := range c.tracers[i].Events() {
		sid, slot := SplitScope(e.Scope)
		if slot == 0 {
			continue
		}
		tr := out[e.Scope]
		if tr == nil {
			tr = &abaTrace{}
			out[e.Scope] = tr
		}
		switch e.Kind {
		case obs.KindABARound:
			if e.A == 1 {
				tr.roundOneEntries++
				tr.onesBefore = ones[sid]
			}
			lastRound[e.Scope] = e.A
		case obs.KindDecide:
			tr.decided, tr.value, tr.roundAtDecide = true, e.A, lastRound[e.Scope]
			if e.A == 1 {
				ones[sid]++
			}
		}
	}
	return out
}

// assertNoCoinMachinery checks that nothing below the vote ran on node
// i: no coin flip, no MW-SVSS sharing or reconstruction, no dealing.
func (c *testCluster) assertNoCoinMachinery(t *testing.T, i int) {
	t.Helper()
	for _, d := range c.logs[i].all() {
		if d.CoinRounds != 0 {
			t.Errorf("node %d session %d: CoinRounds = %d, want 0", i, d.Session, d.CoinRounds)
		}
	}
	for _, e := range c.tracers[i].Events() {
		switch e.Kind {
		case obs.KindCoin, obs.KindMWShare, obs.KindMWRecon:
			t.Errorf("node %d: %s event in scope %#x of a session nobody contested", i, e.Kind, e.Scope)
			return
		}
	}
	if ps, ok := c.drvs[i].PoolStats(); ok && (ps.Refills != 0 || ps.Handouts != 0) {
		t.Errorf("node %d: pool used by uncontested sessions: %+v", i, ps)
	}
}

// submitAll submits one proposal per live node, each long enough (32
// bytes or more) to be echoed by digest.
func (c *testCluster) submitAll(t *testing.T, prefix string) map[int]string {
	t.Helper()
	submitted := make(map[int]string)
	for _, i := range c.live {
		submitted[i] = fmt.Sprintf("%s-n%d, a proposal echoed by its digest", prefix, i)
		if err := c.drvs[i].Submit([]byte(submitted[i])); err != nil {
			t.Fatalf("node %d submit: %v", i, err)
		}
	}
	return submitted
}

// session returns node i's record of session sid.
func (c *testCluster) session(i int, sid uint64) *session {
	d := c.drvs[i]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sessions[sid]
}

// accept is a proposal a plane accepted and a tamper held back.
type accept struct {
	origin sim.ProcID
	value  []byte
}

// heldSession is one session under holdProposalsUntilAll: how many
// (node, proposal) accepts its planes hold, and each node's release.
type heldSession struct {
	accepted int
	release  [testN + 1]func()
}

// holdProposalsUntilAll is a plane Tamper that delivers a session's
// proposals to the drivers only once every node's plane accepted every
// proposal, so every node inputs 1 to every agreement before any of
// its agreements can decide: the schedule-independent way to make every
// agreement's inputs unanimous with all four nodes up (otherwise three
// fast nodes may reach n−t ones and flood 0 into the fourth's agreement
// while its proposal is still in flight — legal, and contested).
//
// It also means nobody looks slow to anybody: no value is ever pushed
// or pulled. Before the release nothing decides, so every accept came
// with the proposer's own body — a type 3 needs the proposer's echo,
// which leaves after its value (sendOwnValue), and the chan mesh
// delivers each node's inbound in order — and every node echoed every
// digest before it accepted. The last accept releases the nodes from its own node's next
// burst, after that node's type 2s left, and a decision needs messages
// sent after the release — the chan mesh delivers each node's inbound
// in order, so every type 2 is in before any node can decide.
func holdProposalsUntilAll(c *testCluster, i int) func(uint64, int, *core.Stack) {
	return func(sid uint64, slot int, st *core.Stack) {
		if slot != 0 {
			return
		}
		d, s := c.drvs[i], c.session(i, sid)
		var held []accept
		c.holdMu.Lock()
		h := c.holds[sid]
		if h == nil {
			h = &heldSession{}
			c.holds[sid] = h
		}
		h.release[i] = func() {
			for _, a := range held {
				d.onProposal(s, a.origin, a.value)
			}
			held = nil
		}
		c.holdMu.Unlock()
		st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
			if tag != planeTag(sid) {
				return
			}
			held = append(held, accept{origin, value})
			c.holdMu.Lock()
			h.accepted++
			all := h.accepted == testN*testN
			c.holdMu.Unlock()
			if all {
				_ = c.nodes[i].Inject(func() {
					for k := 1; k <= testN; k++ {
						_ = c.nodes[k].Inject(h.release[k])
					}
				})
			}
		})
	}
}

// holdProposals is a plane Tamper that delivers a session's proposals
// to node i's driver only once its plane accepted all of them, so node
// i inputs 1 to every agreement.
func holdProposals(c *testCluster, i int) func(uint64, int, *core.Stack) {
	return func(sid uint64, slot int, st *core.Stack) {
		if slot != 0 {
			return
		}
		d, s := c.drvs[i], c.session(i, sid)
		var held []accept
		st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
			if tag != planeTag(sid) {
				return
			}
			if held = append(held, accept{origin, value}); len(held) == testN {
				for _, a := range held {
					d.onProposal(s, a.origin, a.value)
				}
			}
		})
	}
}

// holdProposalsUntilEchoed is a plane Tamper step for node i: it holds
// every proposal the plane of session sid accepts until node i echoed
// proposer j's own type 1 — its plane sends a type 2 for j only once
// that arrived. Until then node i delivers no proposal, so it cannot
// complete the session, and j's value reaches the plane's engine while
// the plane is live: delivered if it hashes to j's accepted digest,
// else counted as dropped when the plane retires.
func holdProposalsUntilEchoed(c *testCluster, i, j int, sid uint64, st *core.Stack) {
	d, s := c.drvs[i], c.session(i, sid)
	var held []accept
	echoed := false
	release := func() {
		for _, a := range held {
			d.onProposal(s, a.origin, a.value)
		}
		held = nil
	}
	st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
		if tag != planeTag(sid) {
			return
		}
		held = append(held, accept{origin, value})
		if echoed {
			release()
		}
	})
	st.Node.SetSendTamper(func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
		if m, ok := p.(rb.WeakMsg); ok && !echoed && m.Phase == rb.Type2 && m.Origin == sim.ProcID(j) {
			// The echo is sent from inside the engine: release after it.
			echoed = true
			_ = c.nodes[i].Inject(release)
		}
		return p, true
	})
}

// TestUnanimousSessionFlipsNoCoins: with every agreement's inputs
// unanimously 1 the session decides the full subset in round 1 of each
// agreement without a coin flip, a dealing or a reconstruction — pooled
// and unpooled alike — and the driver returns to baseline.
func TestUnanimousSessionFlipsNoCoins(t *testing.T) {
	for _, pool := range []bool{true, false} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			c := startTestCluster(t, clusterOpts{pool: pool, tamper: holdProposalsUntilAll})
			submitted := c.submitAll(t, "u")
			c.drain(t)
			decs := c.assertSameDecisions(t)
			assertEachValueDecidedOnce(t, decs, submitted)
			for _, d := range decs {
				if len(d.Members) != testN {
					t.Errorf("session %d: subset %v, want all %d proposers", d.Session, d.Members, testN)
				}
			}
			for _, i := range c.live {
				c.assertNoCoinMachinery(t, i)
				if _, ok := c.drvs[i].PoolStats(); ok != pool {
					t.Errorf("node %d: PoolStats ok=%v, want %v", i, ok, pool)
				}
				for scope, tr := range c.abaTraces(i) {
					if !tr.decided || tr.value != 1 || tr.roundAtDecide != 1 {
						t.Errorf("node %d scope %#x: decided=%v value=%d in round %d, want 1 in round 1",
							i, scope, tr.decided, tr.value, tr.roundAtDecide)
					}
				}
			}
		})
	}
}

// TestCrashedProposerDecidesZeroInRoundTwo: node 4 never starts. Every
// quorum then needs all three live nodes, so the inputs are forced:
// agreements 1..3 get 1 from everyone and decide 1 in round 1; the
// third such decision is n−t ones, which floods 0 — once — into
// agreement 4, and that decides 0 in round 2. The subset is the three
// live nodes and nobody flips a coin.
func TestCrashedProposerDecidesZeroInRoundTwo(t *testing.T) {
	c := startTestCluster(t, clusterOpts{pool: true, down: map[int]bool{4: true}})
	submitted := c.submitAll(t, "c")
	c.drain(t)
	decs := c.assertSameDecisions(t)
	assertEachValueDecidedOnce(t, decs, submitted)
	for _, d := range decs {
		if fmt.Sprint(d.Members) != "[1 2 3]" {
			t.Errorf("session %d: subset %v, want the live nodes [1 2 3]", d.Session, d.Members)
		}
	}
	for _, i := range c.live {
		c.assertNoCoinMachinery(t, i)
		traces := c.abaTraces(i)
		if len(traces) != testN*len(decs) {
			t.Errorf("node %d: %d agreement scopes traced, want %d", i, len(traces), testN*len(decs))
		}
		for scope, tr := range traces {
			_, slot := SplitScope(scope)
			if tr.roundOneEntries != 1 {
				t.Errorf("node %d scope %#x: given an input %d times, want once", i, scope, tr.roundOneEntries)
			}
			wantValue, wantRound := uint64(1), uint64(1)
			if slot == 4 {
				wantValue, wantRound = 0, 2
				// Flood-0 fires at exactly n−t ones, not before.
				if tr.onesBefore != testN-testT {
					t.Errorf("node %d scope %#x: 0 flooded after %d ones, want %d", i, scope, tr.onesBefore, testN-testT)
				}
			}
			if !tr.decided || tr.value != wantValue || tr.roundAtDecide != wantRound {
				t.Errorf("node %d scope %#x: decided=%v value=%d in round %d, want %d in round %d",
					i, scope, tr.decided, tr.value, tr.roundAtDecide, wantValue, wantRound)
			}
		}
	}
}

// TestJoinedSessionProposesEmpty: only node 1 submits. The others join
// its session on peer traffic with nothing queued, propose the empty
// value, and the one session completes everywhere. (Node 1's value is
// in the subset unless the joiners' three agreements outran its
// proposal — legal, so not asserted.)
func TestJoinedSessionProposesEmpty(t *testing.T) {
	c := startTestCluster(t, clusterOpts{pool: true})
	if err := c.drvs[1].Submit([]byte("only-n1")); err != nil {
		t.Fatal(err)
	}
	c.drain(t)
	decs := c.assertSameDecisions(t)
	if len(decs) != 1 {
		t.Fatalf("%d sessions decided, want 1", len(decs))
	}
	for _, d := range decs {
		for k, m := range d.Members {
			switch {
			case m == 1:
				if string(d.Values[k]) != "only-n1" {
					t.Errorf("member 1's value = %q, want the submission", d.Values[k])
				}
			case len(d.Values[k]) != 0:
				t.Errorf("member %d joined on traffic but proposed %q, want the empty value", m, d.Values[k])
			}
		}
	}
	for _, i := range c.live {
		if got := c.drvs[i].Completed(); got != 1 {
			t.Errorf("node %d completed %d sessions, want 1", i, got)
		}
	}
}

// TestPopClearsQueueSlot pins the heap fix: popping a submitted value
// must not leave it reachable from the queue's backing array.
func TestPopClearsQueueSlot(t *testing.T) {
	d := &Driver{}
	backing := [][]byte{[]byte("a"), []byte("b")}
	d.queue = backing
	if v, ok := d.tryPopValue(); !ok || string(v) != "a" {
		t.Fatalf("pop = (%q, %v), want (a, true)", v, ok)
	}
	if backing[0] != nil {
		t.Error("popped value still pinned by the queue's backing array")
	}
	if len(d.queue) != 1 || string(d.queue[0]) != "b" {
		t.Errorf("queue after pop = %q, want [b]", d.queue)
	}
}

// TestWireIsV2Only pins the deprecated Config.Wire: unset and "v2" are
// the same driver, anything else is refused rather than running a
// stack the service's nodes do not speak.
func TestWireIsV2Only(t *testing.T) {
	for _, w := range []string{"", "v2"} {
		if _, err := New(Config{N: testN, Self: 1, Wire: w}); err != nil {
			t.Errorf("Wire %q rejected: %v", w, err)
		}
	}
	for _, w := range []string{"v1", "v3"} {
		if _, err := New(Config{N: testN, Self: 1, Wire: w}); err == nil {
			t.Errorf("Wire %q accepted", w)
		}
	}
}

// TestCompletedSidsFoldIntoTheMark pins the completion record on a bare
// driver (n = 4, Window 4: the sparse set spans at most 64 sids).
// Contiguous completions fold into the mark; one above a gap waits until
// the gap completes, and a gap never seen is not done; a completion more
// than 64 sids above the mark skips the gap; and a fresh driver whose
// first sessions lie far above sid 1 remembers nothing once they are
// done, whatever order they complete in.
func TestCompletedSidsFoldIntoTheMark(t *testing.T) {
	newDriver := func() *Driver {
		d, err := New(Config{N: testN, Self: 1, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	check := func(d *Driver, low uint64, above int) {
		t.Helper()
		if d.doneLow != low || len(d.doneAbove) != above {
			t.Fatalf("mark %d with %d sids above, want %d with %d", d.doneLow, len(d.doneAbove), low, above)
		}
	}

	d := newDriver()
	if !d.doneLocked(0) {
		t.Error("sid 0 is not refused")
	}
	for sid := uint64(1); sid <= 60; sid++ {
		if sid != 20 {
			d.markDoneLocked(sid)
		}
	}
	check(d, 19, 40)
	if d.doneLocked(20) || !d.doneLocked(19) || !d.doneLocked(60) || d.doneLocked(61) {
		t.Error("done predicate disagrees with the record around the gap at 20")
	}
	d.markDoneLocked(20)
	check(d, 60, 0)

	for sid := uint64(62); sid <= 124; sid++ { // 61 is never seen
		d.markDoneLocked(sid)
	}
	check(d, 60, 63)
	d.markDoneLocked(125) // 65 sids above the mark: 61 is skipped
	check(d, 125, 0)
	if !d.doneLocked(61) {
		t.Error("the skipped sid 61 is not done")
	}

	d = newDriver()
	for _, sid := range []uint64{5003, 5001, 5000, 5002, 5005, 5004} {
		d.markDoneLocked(sid)
	}
	check(d, 5005, 0)
}

// TestWindowCapsInitiatedSessions: with every peer down, nothing this
// process initiates can complete, so the window alone stops the pump.
// It holds exactly inFlightPerWindow·Window sessions in flight, with the
// pool on and off, and the rest of the submissions stay queued.
func TestWindowCapsInitiatedSessions(t *testing.T) {
	const submitted = 100
	for _, pool := range []bool{false, true} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			c := startTestCluster(t, clusterOpts{pool: pool, down: map[int]bool{2: true, 3: true, 4: true}})
			d := c.drvs[1]
			for k := 0; k < submitted; k++ {
				if err := d.Submit([]byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			// Inject thunks run in order: once this one ran, so did every
			// pump the submissions queued.
			ran := make(chan struct{})
			if err := c.nodes[1].Inject(func() { close(ran) }); err != nil {
				t.Fatal(err)
			}
			<-ran
			want := inFlightPerWindow * d.cfg.Window
			if got := d.InFlight(); got != want {
				t.Errorf("%d sessions in flight, want inFlightPerWindow·Window = %d", got, want)
			}
			if got := d.MaxInFlight(); got != want {
				t.Errorf("peak in flight %d, want %d", got, want)
			}
			if got := d.QueueLen(); got != submitted-want {
				t.Errorf("%d values queued, want %d", got, submitted-want)
			}
		})
	}
}

// TestCadenceLedger pins the admission cadence's arithmetic on a bare
// driver: a fresh ledger affords a burst, every start costs paceSession
// plus paceByte per proposal byte, the pump is held once the starts are
// paid up to more than paceBurst ahead, time pays the debt off, and a
// process that only joins cannot run up more than twice the burst.
func TestCadenceLedger(t *testing.T) {
	d := &Driver{}
	now := time.Unix(1000, 0)
	if w := d.paceWaitLocked(now); w > 0 {
		t.Fatalf("fresh ledger holds the pump for %v", w)
	}
	burst := int(paceBurst / paceSession)
	for k := 0; k < burst; k++ {
		if w := d.paceWaitLocked(now); w > 0 {
			t.Fatalf("start %d of a %d-session burst held for %v", k+1, burst, w)
		}
		d.paceChargeLocked(now, 0)
	}
	d.paceChargeLocked(now, 0)
	if w := d.paceWaitLocked(now); w != paceSession {
		t.Errorf("after burst+1 starts the pump waits %v, want %v", w, paceSession)
	}
	if w := d.paceWaitLocked(now.Add(paceSession)); w > 0 {
		t.Errorf("one cadence interval later the pump still waits %v", w)
	}

	d = &Driver{}
	d.paceChargeLocked(now, 1<<20)
	want := paceSession + (1<<20)*paceByte - paceBurst
	if w := d.paceWaitLocked(now); w != want {
		t.Errorf("after a 1 MiB proposal the pump waits %v, want %v", w, want)
	}

	d = &Driver{}
	for k := 0; k < 10*burst; k++ {
		d.paceChargeLocked(now, 0) // joined sessions: charged, never held
	}
	if w := d.paceWaitLocked(now); w != paceBurst {
		t.Errorf("a joiner's debt holds the pump for %v, want the cap %v", w, paceBurst)
	}
}

// TestCadenceTimerRestartsPump: a value submitted while the ledger is
// overdrawn and nothing is in flight has only the cadence timer to
// start its session — no delivery, completion or plane open will pump
// again. It must wait out the debt and then complete everywhere.
func TestCadenceTimerRestartsPump(t *testing.T) {
	const debt = 60 * time.Millisecond
	c := startTestCluster(t, clusterOpts{pool: true})
	d := c.drvs[1]
	start := time.Now()
	d.mu.Lock()
	d.paceAt = start.Add(paceBurst + debt)
	d.mu.Unlock()
	if err := d.Submit([]byte("late")); err != nil {
		t.Fatal(err)
	}
	c.drain(t)
	decs := c.logs[1].all()
	if len(decs) != 1 {
		t.Fatalf("%d sessions decided, want 1", len(decs))
	}
	// Reported-at minus Elapsed is (just after) the session's start.
	if held := c.logs[1].reportedAt(0).Add(-decs[0].Elapsed).Sub(start); held < debt {
		t.Errorf("session started %v after the submission, want the cadence to hold it %v", held, debt)
	}
	c.assertSameDecisions(t)
}

// bulkValue builds node i's deterministic size-byte proposal for round r.
func bulkValue(i, r, size int) []byte {
	v := make([]byte, size)
	for k := range v {
		v[k] = byte(i*31 + r*7 + k)
	}
	return v
}

// sumOver adds f over the live nodes.
func (c *testCluster) sumOver(f func(i int) int64) int64 {
	var total int64
	for _, i := range c.live {
		total += f(i)
	}
	return total
}

func (c *testCluster) forwards() int64 {
	return c.sumOver(func(i int) int64 { return c.drvs[i].ValueForwards() })
}

// valueSends is a plane Tamper that records, per destination, the
// proposal values node i sends on behalf of another proposer — its
// pushes.
type valueSends struct {
	mu sync.Mutex
	to map[sim.ProcID]int
}

func (vs *valueSends) tamper(*testCluster, int) func(uint64, int, *core.Stack) {
	return func(_ uint64, slot int, st *core.Stack) {
		if slot != 0 {
			return
		}
		self := st.Node.Self()
		st.Node.SetSendTamper(func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if v, ok := p.(rb.WeakMsg); ok && v.Phase == rb.Type1 && v.Origin != self {
				vs.mu.Lock()
				vs.to[to]++
				vs.mu.Unlock()
			}
			return p, true
		})
	}
}

// TestBulkProposalsCrossEachLinkOnce: a fault-free session of 64 KiB
// proposals ships each value once per peer and nothing else of that
// size — no pushes, wrb/type1 bytes = n(n−1)·|v| plus framing, and the
// whole session's frames within a tenth of that — and decides the full
// subset.
func TestBulkProposalsCrossEachLinkOnce(t *testing.T) {
	const size = 64 << 10
	c := startTestCluster(t, clusterOpts{pool: true, tamper: holdProposalsUntilAll})
	submitted := make(map[int]string)
	for _, i := range c.live {
		v := bulkValue(i, 0, size)
		submitted[i] = string(v)
		if err := c.drvs[i].Submit(v); err != nil {
			t.Fatal(err)
		}
	}
	c.drain(t)
	decs := c.assertSameDecisions(t)
	assertEachValueDecidedOnce(t, decs, submitted)
	for _, d := range decs {
		if len(d.Members) != testN {
			t.Errorf("session %d: subset %v, want all %d proposers", d.Session, d.Members, testN)
		}
	}
	if f := c.forwards(); f != 0 {
		t.Errorf("%d values forwarded in a fault-free session, want 0", f)
	}
	var valueMsgs, valueBytes, frameBytes int64
	for _, i := range c.live {
		st := c.nodes[i].Stats()
		valueMsgs += st.SentByKind[rb.KindType1]
		valueBytes += st.SentBytesByKind[rb.KindType1]
		frameBytes += st.SentFrameBytes
	}
	// Nodes that joined a session on peer traffic proposed the empty
	// value in it, so messages are counted and bytes bounded per message.
	const once = testN * (testN - 1) * size
	if valueMsgs%(testN*(testN-1)) != 0 {
		t.Errorf("%d wrb/type1 messages sent, want a multiple of n(n-1) = %d", valueMsgs, testN*(testN-1))
	}
	if valueBytes < once || valueBytes > once+64*valueMsgs {
		t.Errorf("wrb/type1 bytes sent = %d, want n(n-1)|v| = %d plus at most 64 per message", valueBytes, once)
	}
	if frameBytes > once+once/10 {
		t.Errorf("all frames sent = %d bytes, want within 10%% of n(n-1)|v| = %d", frameBytes, once)
	}
}

// TestEquivocatingProposerCannotSplitOutputs: node 1 sends v to nodes 2
// and 3 and v′ to node 4. Only one digest can be RB-accepted; node 4
// holds a value that does not hash to it, so it must not deliver until a
// holder pushes it the right one. The session completes everywhere with
// the same value for node 1 (or without node 1). Node 4 holds every
// proposal its plane accepts until v′ arrived: otherwise v′ may legally
// reach it only after its plane retired, dropped as a late payload
// rather than by the plane's engine.
func TestEquivocatingProposerCannotSplitOutputs(t *testing.T) {
	c := startTestCluster(t, clusterOpts{pool: true, tamper: func(c *testCluster, i int) func(uint64, int, *core.Stack) {
		return func(sid uint64, slot int, st *core.Stack) {
			if i == 4 && slot == 0 {
				holdProposalsUntilEchoed(c, 4, 1, sid, st)
			}
			if i != 1 || slot != 0 {
				return
			}
			st.Node.SetSendTamper(func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
				if v, ok := p.(rb.WeakMsg); ok && v.Phase == rb.Type1 && v.Origin == 1 && to == 4 {
					v.Value = []byte("e-n1, but a different proposal for node 4")
					return v, true
				}
				return p, true
			})
		}
	}})
	submitted := c.submitAll(t, "e")
	c.drain(t)
	// Values are compared across nodes here. (A slow node's own proposal
	// may legally be cut from the subset, so not every value is decided.)
	decs := c.assertSameDecisions(t)
	if got := c.drvs[4].ValueCandidatesDropped(); got < 1 {
		t.Errorf("node 4 dropped %d values, want at least the equivocated one", got)
	}
	for _, d := range decs {
		if d.Members[0] != 1 || len(d.Values[0]) == 0 {
			continue
		}
		if string(d.Values[0]) != submitted[1] {
			t.Errorf("session %d: node 1's value decided as %q, want the one its digest was accepted for", d.Session, d.Values[0])
		}
		if c.forwards() < 1 {
			t.Errorf("session %d has node 1's proposal, which node 4 can only have from a push, but none was sent", d.Session)
		}
	}
}

// TestWithheldValueArrivesByForward: node 1 never sends its value to
// node 4, and node 4 processes nothing until the other three completed
// the session and retired its planes — so nobody is left to ask. What
// is already in flight must do: the digests' type 3s, the DECIDEs, and
// the copies of node 1's value that nodes 2 and 3 pushed when agreement
// 1 decided 1 without a type 2 from node 4.
func TestWithheldValueArrivesByForward(t *testing.T) {
	c := startTestCluster(t, clusterOpts{pool: true, late: map[int]bool{4: true}, tamper: func(_ *testCluster, i int) func(uint64, int, *core.Stack) {
		return func(_ uint64, slot int, st *core.Stack) {
			if i != 1 || slot != 0 {
				return
			}
			st.Node.SetSendTamper(func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
				v, ok := p.(rb.WeakMsg)
				return p, !(ok && v.Phase == rb.Type1 && v.Origin == 1 && to == 4)
			})
		}
	}})
	submitted := c.submitAll(t, "w")
	c.drain(t) // nodes 1..3: session decided, every scope retired
	if f := c.forwards(); f < 1 {
		t.Fatalf("%d values forwarded toward the silent node, want >= 1", f)
	}
	c.startLate(t, 4)
	c.drain(t)
	decs := c.assertSameDecisions(t)
	assertEachValueDecidedOnce(t, decs, submitted)
	for _, d := range decs {
		if fmt.Sprint(d.Members) != "[1 2 3]" {
			t.Errorf("session %d: subset %v, want [1 2 3]", d.Session, d.Members)
		}
	}
}

// TestCrashedPeerGetsTheOnlyForwards: node 4 never starts. Every quorum
// needs all three live nodes, so by the time an agreement decides 1
// each of them has seen the other two echo the proposal's digest: the
// only process anyone pushes a value to is node 4, once per holder that
// is not the proposer — n−2 = 2 per proposal echoed by digest, 6 per
// session. (An empty proposal, of a node that joined a session on peer
// traffic, is echoed inline and never pushed.)
func TestCrashedPeerGetsTheOnlyForwards(t *testing.T) {
	vs := &valueSends{to: make(map[sim.ProcID]int)}
	c := startTestCluster(t, clusterOpts{pool: true, down: map[int]bool{4: true}, tamper: vs.tamper})
	submitted := c.submitAll(t, "d")
	c.drain(t)
	decs := c.assertSameDecisions(t)
	assertEachValueDecidedOnce(t, decs, submitted)
	for _, d := range decs {
		if fmt.Sprint(d.Members) != "[1 2 3]" {
			t.Errorf("session %d: subset %v, want the live nodes [1 2 3]", d.Session, d.Members)
		}
	}
	var want int64
	for _, d := range decs {
		for _, v := range d.Values {
			if len(v) >= proto.DigestSize {
				want += 2
			}
		}
	}
	if want != int64(6*len(decs)) {
		t.Logf("%d sessions, with empty proposals of joined nodes among them", len(decs))
	}
	if f := c.forwards(); f != want {
		t.Errorf("%d values forwarded over %d sessions, want %d", f, len(decs), want)
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if len(vs.to) != 1 || int64(vs.to[4]) != want {
		t.Errorf("forwards by destination = %v, want all %d to node 4", vs.to, want)
	}
}

// TestGarbageForwardIsNeverDelivered: node 3 rides two made-up pushes
// on its own proposal to node 2 — one for node 1's proposal, one for
// node 4's, which is down, so no digest ever comes to check it against.
// Neither reaches a decision, both are counted as dropped, and nothing
// is left parked once the session is over.
func TestGarbageForwardIsNeverDelivered(t *testing.T) {
	var mu sync.Mutex
	var planes []*core.Stack // node 2's
	c := startTestCluster(t, clusterOpts{pool: true, down: map[int]bool{4: true}, tamper: func(c *testCluster, i int) func(uint64, int, *core.Stack) {
		return func(sid uint64, slot int, st *core.Stack) {
			if slot != 0 {
				return
			}
			switch i {
			case 2:
				mu.Lock()
				planes = append(planes, st)
				mu.Unlock()
			case 3:
				st.Node.SetSendTamper(func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
					if v, ok := p.(rb.WeakMsg); ok && v.Phase == rb.Type1 && v.Origin == 3 && to == 2 {
						for origin, garbage := range map[sim.ProcID]string{
							1: "not what node 1 proposed, though as long",
							4: "node 4 proposed nothing, and is down too",
						} {
							ctx.Send(2, rb.WeakMsg{Origin: origin, Tag: v.Tag, Phase: rb.Type1, Value: []byte(garbage)})
						}
					}
					return p, true
				})
			}
		}
	}})
	submitted := c.submitAll(t, "g")
	c.drain(t)
	decs := c.assertSameDecisions(t)
	assertEachValueDecidedOnce(t, decs, submitted) // member 1's value is node 1's own
	if got, want := c.drvs[2].ValueCandidatesDropped(), int64(2*len(decs)); got < want {
		t.Errorf("node 2 dropped %d values over %d sessions, want >= %d", got, len(decs), want)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, st := range planes {
		if got := st.StateCounts(); got.Total() != 0 {
			t.Errorf("node 2: a retired plane still holds state %+v", got)
		}
	}
}

// TestPlaneBoundsParkedValues drives one plane stack by hand: a value
// from anyone but its proposer is parked as a candidate and triggers no
// send; a sender's second value for the same proposer is refused; only
// the proposer's own value is echoed, by its digest; the proposal is
// accepted once n−t type 3s carry that digest, and the parked values
// are freed with the acceptance. What is parked shows in the stack's
// state counts, and the plane's engine counts every value it did not
// deliver (what the driver adds to ValueCandidatesDropped when the
// plane retires).
func TestPlaneBoundsParkedValues(t *testing.T) {
	st := core.NewStack(2, nil)
	var accepted [][]byte // what the plane hands the session
	st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
		if origin == 1 && tag == planeTag(7) {
			accepted = append(accepted, value)
		}
	})
	ctx := testutil.NewCtx(2, testN, testT)
	deliver := func(from sim.ProcID, p sim.Payload) {
		st.Node.Deliver(ctx, sim.Message{From: from, To: 2, Payload: p})
	}
	value := func(v string) []byte { return []byte(v + ", padded past a digest's length") }
	type1 := func(from sim.ProcID, v string) {
		deliver(from, rb.WeakMsg{Origin: 1, Tag: planeTag(7), Phase: rb.Type1, Value: value(v)})
	}

	type1(3, "forward")
	type1(3, "forward again")
	if len(ctx.Sent) != 0 {
		t.Fatalf("plane sent %d messages for two forwards, want none", len(ctx.Sent))
	}
	if got := st.StateCounts(); got.RBInstances != 1 || got.Total() != 1 {
		t.Errorf("state counts with one parked candidate: %+v, want one RB instance", got)
	}
	if got := st.Node.RB().Dropped(); got != 2 {
		t.Errorf("%d values undelivered, want the two forwards", got)
	}

	type1(1, "from the proposer")
	want := sha256.Sum256(value("from the proposer"))
	echoes := 0
	for _, m := range ctx.Drain() {
		if e, ok := m.Payload.(rb.WeakMsg); ok && e.Phase == rb.Type2 && e.Origin == 1 && bytes.Equal(e.Value, want[:]) {
			echoes++
		}
	}
	if echoes != testN {
		t.Errorf("%d type 2s for the proposer's digest, want one per process", echoes)
	}

	for _, from := range []sim.ProcID{1, 3, 4} {
		deliver(from, rb.Msg{Origin: 1, Tag: planeTag(7), Value: want[:]})
	}
	if len(accepted) != 1 || !bytes.Equal(accepted[0], value("from the proposer")) {
		t.Fatalf("proposal 1 accepted as %q, want the proposer's value once", accepted)
	}
	if got := st.Node.RB().Dropped(); got != 2 {
		t.Errorf("%d values undelivered after the delivery, want the two forwards", got)
	}
	st.Retire()
	if got := st.StateCounts(); got.Total() != 0 {
		t.Errorf("state counts after retirement: %+v, want none", got)
	}
}

// TestValueCopiedOnce pins the copy discipline on the chan mesh. One
// 64 KiB proposal costs the cluster the submission copy (which the
// proposer's own RB engine keeps), one frame per peer and one copy per
// peer's engine — (2n−1)·|v| plus the frames' headers and size-class
// rounding — and a session in which all n propose costs each node the
// same, under the 2n·|v| line that any further copy (on delivery, on
// RB accept, into the decision) crosses. One node
// submits per round and proposals are held until all four can be
// delivered, so a round is exactly one uncontested session; what a
// session allocates that is not value bytes is measured on 64-byte
// rounds and taken out.
func TestValueCopiedOnce(t *testing.T) {
	const (
		size   = 64 << 10
		rounds = 8
	)
	c := startTestCluster(t, clusterOpts{pool: true, tamper: holdProposalsUntilAll})
	done := 0
	run := func(size int) uint64 {
		vals := make([][]byte, rounds)
		for r := range vals {
			vals[r] = bulkValue(r, r, size)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r, v := range vals {
			if err := c.drvs[1+r%testN].Submit(v); err != nil {
				t.Fatal(err)
			}
			c.drain(t)
		}
		runtime.ReadMemStats(&after)
		if got := c.drvs[1].Completed() - done; got != rounds {
			t.Fatalf("%d rounds ran as %d sessions", rounds, got)
		}
		done += rounds
		return after.TotalAlloc - before.TotalAlloc
	}
	run(64) // warm the pools and maps
	small := run(64)
	big := run(size)
	perValue := (float64(big) - float64(small)) / rounds
	t.Logf("%d sessions: %d bytes with 64 B proposals, %d with one 64 KiB proposal each: %.2f |v| per value", rounds, small, big, perValue/size)
	if limit := float64(2 * testN * size); perValue >= limit {
		t.Errorf("value bytes allocated per proposal = %.0f (%.2f |v|), want < 2n|v| = %.0f", perValue, perValue/size, limit)
	}
	if floor := float64((2*testN - 1) * size); perValue < floor {
		t.Errorf("value bytes allocated per proposal = %.0f, below (2n-1)|v| = %.0f: the measurement is broken", perValue, floor)
	}
}

// settle waits until node i's traffic counters stop moving, then
// returns them.
func (c *testCluster) settle(i int) node.Stats {
	prev := c.nodes[i].Stats()
	for {
		time.Sleep(100 * time.Millisecond)
		cur := c.nodes[i].Stats()
		if cur.RecvFrames == prev.RecvFrames && cur.Sent == prev.Sent {
			return cur
		}
		prev = cur
	}
}

// replay sends inner payloads to node to as scope envelopes in one
// Pack frame from node from's endpoint, the way from's node would.
func (c *testCluster) replay(t *testing.T, from, to int, scope uint64, inner ...proto.Marshaler) {
	t.Helper()
	batch := make([]sim.Payload, len(inner))
	for k, p := range inner {
		batch[k] = proto.Scoped{Scope: scope, Inner: p}
	}
	frame, err := c.codec.Encode(proto.Pack{Items: batch})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c.mesh.Endpoint(sim.ProcID(from))
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(sim.ProcID(to), frame); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredScopesAreNeverReopened: only node 1 proposes a value, and
// node 4 holds back its delivery. Node 4's agreement 1 then
// decides 1 on the others' DECIDEs, halts and retires while its session
// still waits for the value. A replayed BVAL and DECIDE for that
// agreement must be refused: counted late, and no second stack built for
// the slot (counted through Tamper). Once the value is let through,
// every node decides the same subset, node 1's value in it; the same
// replay against the plane scope after completion is refused too, and
// no decision moves.
func TestRetiredScopesAreNeverReopened(t *testing.T) {
	const sid = 1
	var mu sync.Mutex
	built := make(map[[3]uint64]int) // stacks built, by (node, sid, slot)
	stacks := func(i, slot int) int {
		mu.Lock()
		defer mu.Unlock()
		return built[[3]uint64{uint64(i), sid, uint64(slot)}]
	}
	var release func() // node 4's delivery goroutine only
	c := startTestCluster(t, clusterOpts{tamper: func(c *testCluster, i int) func(uint64, int, *core.Stack) {
		hold := holdProposals(c, i)
		return func(sid uint64, slot int, st *core.Stack) {
			mu.Lock()
			built[[3]uint64{uint64(i), sid, uint64(slot)}]++
			mu.Unlock()
			if i != 4 {
				hold(sid, slot, st)
				return
			}
			if slot != 0 {
				return
			}
			d, s := c.drvs[4], c.session(4, sid)
			held, parked := true, [][]byte(nil)
			st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
				if tag != planeTag(sid) {
					return
				}
				if origin == 1 && held {
					parked = append(parked, value)
					return
				}
				d.onProposal(s, origin, value)
			})
			release = func() {
				held = false
				for _, v := range parked {
					d.onProposal(s, 1, v)
				}
			}
		}
	}})
	const value = "reopen-n1"
	if err := c.drvs[1].Submit([]byte(value)); err != nil {
		t.Fatal(err)
	}
	retired := func(i, slot int) bool {
		for _, e := range c.tracers[i].Events() {
			if e.Kind == obs.KindScopeRetire && e.Scope == ScopeOf(sid, slot) {
				return true
			}
		}
		return false
	}
	poll(t, "node 4's agreement 1 retires while its session waits for the value", func() bool {
		for i := 1; i < testN; i++ {
			if c.drvs[i].Completed() != 1 {
				return false
			}
		}
		return retired(4, 1) && c.drvs[4].InFlight() == 1 && c.drvs[4].Completed() == 0
	})

	base := c.settle(4)
	c.replay(t, 2, 4, ScopeOf(sid, 1), aba.Vote{Step: 1, Round: 1, Value: 1}, aba.Decide{Value: 1})
	poll(t, "the replayed agreement messages count as late", func() bool {
		return c.nodes[4].Stats().DroppedLatePayloads == base.DroppedLatePayloads+2
	})
	if got := stacks(4, 1); got != 1 {
		t.Fatalf("node 4 built %d stacks for agreement 1, want 1", got)
	}

	if err := c.nodes[4].Inject(func() { release() }); err != nil {
		t.Fatal(err)
	}
	c.drain(t)
	decs := c.assertSameDecisions(t)
	if d, ok := decs[sid]; len(decs) != 1 || !ok || d.Members[0] != 1 || string(d.Values[0]) != value {
		t.Fatalf("decisions %v, want one session %d with node 1's value %q in it", decs, sid, value)
	}

	base = c.settle(4)
	c.replay(t, 2, 4, ScopeOf(sid, 0), rb.WeakMsg{Origin: 1, Tag: planeTag(sid), Phase: rb.Type1, Value: []byte(value)})
	poll(t, "the replayed plane message counts as late", func() bool {
		return c.nodes[4].Stats().DroppedLatePayloads == base.DroppedLatePayloads+1
	})
	for slot := 0; slot <= testN; slot++ {
		if got := stacks(4, slot); got != 1 {
			t.Errorf("node 4 built %d stacks for slot %d, want 1", got, slot)
		}
	}
	if again := c.assertSameDecisions(t); len(again) != 1 || len(c.logs[4].all()) != 1 {
		t.Errorf("decisions moved after the replays: %v", again)
	}
}

// TestSessionTablesStayFlat runs thousands of sessions (hundreds under
// -short) through the chan mesh. At any point a node's scope table
// holds no more than can be live at once — n+1 scopes for each of at
// most 4·Window·n sessions in flight — and the driver's completed sids
// above its mark are within the same 4·Window·n; after the drain both
// are empty. Neither depends on how many sessions
// ran: a table that kept a scope per retired slot would hold (n+1) per
// session.
func TestSessionTablesStayFlat(t *testing.T) {
	sessions := 2000
	if testing.Short() {
		sessions = 200
	}
	// One run, with nodes configured as the bench harness configures
	// them: the deprecated Lanes: 1 and LaneKey, both ignored.
	t.Run("lanes=1", func(t *testing.T) {
		c := startTestCluster(t, clusterOpts{pool: true, lanes: 1})
		window := c.drvs[1].cfg.Window
		horizon := 4 * window * testN
		var peakScopes, peakAbove, k int
		deadline := time.Now().Add(5 * time.Minute)
		for c.drvs[1].Completed() < sessions {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d sessions completed", c.drvs[1].Completed(), sessions)
			}
			for _, i := range c.live {
				d := c.drvs[i]
				for d.QueueLen()+d.InFlight() < window {
					k++
					if err := d.Submit([]byte(fmt.Sprintf("flat-%d", k))); err != nil {
						t.Fatal(err)
					}
				}
				sc, _ := c.nodes[i].ServiceCounts()
				d.mu.Lock()
				above := len(d.doneAbove)
				d.mu.Unlock()
				peakScopes, peakAbove = max(peakScopes, sc.Live), max(peakAbove, above)
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Logf("%d sessions: peak scope table %d, peak completed sids above the mark %d", c.drvs[1].Completed(), peakScopes, peakAbove)
		if peakScopes > (testN+1)*horizon {
			t.Errorf("a scope table reached %d entries, want at most (n+1)·4·Window·n = %d", peakScopes, (testN+1)*horizon)
		}
		if peakAbove > horizon {
			t.Errorf("%d completed sids waited above the mark, want at most 4·Window·n = %d", peakAbove, horizon)
		}
		c.drain(t) // every table empty, nothing remembered
		c.assertSameDecisions(t)
	})
}
