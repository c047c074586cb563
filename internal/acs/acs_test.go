package acs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/obs"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

const (
	testN = 4
	testT = 1
)

// decisionLog collects one node's decisions (OnDecide runs on a lane
// goroutine; the test reads from its own).
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
// the way svssba.StartService wires them. Index 0 is unused; a node in
// down is never built and its endpoint never started, so traffic to it
// vanishes.
type testCluster struct {
	drvs    [testN + 1]*Driver
	nodes   [testN + 1]*node.Node
	tracers [testN + 1]*obs.Tracer
	logs    [testN + 1]*decisionLog
	live    []int
}

// tamperFor builds node i's Config.Tamper once its driver exists.
type tamperFor func(c *testCluster, i int) func(sid uint64, slot int, st *core.Stack)

func startTestCluster(t *testing.T, pool bool, down map[int]bool, tamper tamperFor) *testCluster {
	t.Helper()
	mesh := transport.NewMesh(testN)
	codec := core.NewCodec()
	c := &testCluster{}
	for i := 1; i <= testN; i++ {
		if down[i] {
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
			Window: 4, Pool: pool, PoolRounds: 4,
			OnDecide: c.logs[i].add,
		}
		if tamper != nil {
			cfg.Tamper = tamper(c, i)
		}
		drv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.tracers[i] = obs.NewTracer(i, 1<<14)
		nd, err := node.New(node.Config{
			ID: sim.ProcID(i), N: testN, T: testT, Seed: int64(100 + i),
			Codec: codec, Batching: true, Service: drv, Trace: c.tracers[i],
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		drv.Bind(nd)
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		c.drvs[i], c.nodes[i] = drv, nd
		c.live = append(c.live, i)
	}
	return c
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
// baseline: no starting mark, no session record, no pool state.
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
		if d.Starting() != 0 || d.InFlight() != 0 {
			t.Errorf("node %d: starting=%d inFlight=%d after drain", i, d.Starting(), d.InFlight())
		}
		d.mu.Lock()
		left := len(d.sessions)
		d.mu.Unlock()
		if left != 0 {
			t.Errorf("node %d: %d session records outlived their planes", i, left)
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

func (c *testCluster) submitAll(t *testing.T, prefix string) map[int]string {
	t.Helper()
	submitted := make(map[int]string)
	for _, i := range c.live {
		submitted[i] = fmt.Sprintf("%s-n%d", prefix, i)
		if err := c.drvs[i].Submit([]byte(submitted[i])); err != nil {
			t.Fatalf("node %d submit: %v", i, err)
		}
	}
	return submitted
}

// holdProposalsUntilAll is a plane Tamper that delivers a session's
// proposals to the driver only once all n arrived, so every node inputs
// 1 to every agreement before any of its agreements can decide: the
// schedule-independent way to make every agreement's inputs unanimous
// with all four nodes up (otherwise three fast nodes may reach n−t ones
// and flood 0 into the fourth's agreement while its proposal is still
// in flight — legal, and contested).
func holdProposalsUntilAll(c *testCluster, i int) func(uint64, int, *core.Stack) {
	return func(sid uint64, slot int, st *core.Stack) {
		if slot != 0 {
			return
		}
		d := c.drvs[i]
		d.mu.Lock()
		s := d.sessions[sid]
		d.mu.Unlock()
		type proposal struct {
			origin sim.ProcID
			value  []byte
		}
		var held []proposal
		st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, _ proto.Tag, value []byte) {
			held = append(held, proposal{origin, append([]byte(nil), value...)})
			if len(held) < testN {
				return
			}
			for _, p := range held {
				d.onProposal(s, p.origin, p.value)
			}
		})
	}
}

// TestUnanimousSessionFlipsNoCoins: with every agreement's inputs
// unanimously 1 the session decides the full subset in round 1 of each
// agreement without a coin flip, a dealing or a reconstruction — pooled
// and unpooled alike — and the driver returns to baseline.
func TestUnanimousSessionFlipsNoCoins(t *testing.T) {
	for _, pool := range []bool{true, false} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			c := startTestCluster(t, pool, nil, holdProposalsUntilAll)
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
	c := startTestCluster(t, true, map[int]bool{4: true}, nil)
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
	c := startTestCluster(t, true, nil, nil)
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
	c := startTestCluster(t, true, nil, nil)
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
