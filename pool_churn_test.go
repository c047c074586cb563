package svssba

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"svssba/internal/acs"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// churnWait bounds each phase of the churn test, trimmed to the test
// binary's deadline.
func churnWait(t *testing.T) time.Duration {
	t.Helper()
	budget := 2 * time.Minute
	if dl, ok := t.Deadline(); ok {
		if until := time.Until(dl) - 10*time.Second; until < budget {
			if until <= 0 {
				t.Skip("not enough time left in test deadline")
			}
			return until
		}
	}
	return budget
}

func churnPoll(t *testing.T, what string, cond func() bool, report func()) {
	t.Helper()
	deadline := time.Now().Add(churnWait(t))
	for !cond() {
		if time.Now().After(deadline) {
			if report != nil {
				report()
			}
			t.Fatalf("%s: condition never held", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// churnWindow and churnN are the acs Window and cluster size of every
// churn test.
const churnWindow, churnN = 3, 4

// newPooledServiceNode builds one pooled service-node incarnation bound
// to ep, mirroring StartService's wiring. The known-coin prefix is
// cleared on every agreement (all incarnations alike), so sessions flip
// real coins and draw on the pool; PoolRounds 1 keeps the pooled
// dealing deliberately shallow so coin rounds past the first exhaust the
// batch and exercise the classic fallback alongside the pool.
func newPooledServiceNode(t *testing.T, i, n int, seed int64, codec *proto.Codec, ep transport.Transport, log *decisionLog) (*acs.Driver, *node.Node) {
	t.Helper()
	drv, err := acs.New(acs.Config{
		N: n, T: 1, Self: sim.ProcID(i), Window: churnWindow,
		Pool: true, PoolRounds: 1,
		OnDecide: log.add,
		Tamper:   clearCoinPrefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		ID: sim.ProcID(i), N: n, T: 1, Seed: seed,
		Codec: codec, Service: drv,
	}, ep)
	if err != nil {
		t.Fatal(err)
	}
	drv.Bind(nd)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	return drv, nd
}

// decisionLog records one node's decisions keyed by session; OnDecide
// writes it on the node's delivery goroutine, the test reads it from
// its own.
type decisionLog struct {
	mu   sync.Mutex
	decs map[uint64]acs.Decision
}

func newDecisionLog() *decisionLog {
	return &decisionLog{decs: make(map[uint64]acs.Decision)}
}

func (l *decisionLog) add(d acs.Decision) {
	l.mu.Lock()
	l.decs[d.Session] = d
	l.mu.Unlock()
}

func (l *decisionLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.decs)
}

func (l *decisionLog) snapshot() map[uint64]acs.Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint64]acs.Decision, len(l.decs))
	for sid, d := range l.decs {
		out[sid] = d
	}
	return out
}

// assertChurnDecisions checks subset equality across the listed nodes:
// every session all of them completed must carry identical members and
// values everywhere.
func assertChurnDecisions(t *testing.T, phase string, logs []*decisionLog) {
	t.Helper()
	ref := logs[0].snapshot()
	for li := 1; li < len(logs); li++ {
		other := logs[li].snapshot()
		for sid, rd := range ref {
			od, ok := other[sid]
			if !ok {
				continue // this node joined later / crashed earlier
			}
			if fmt.Sprint(od.Members) != fmt.Sprint(rd.Members) {
				t.Errorf("%s: session %d: members %v != %v", phase, sid, od.Members, rd.Members)
				continue
			}
			for k := range rd.Values {
				if string(od.Values[k]) != string(rd.Values[k]) {
					t.Errorf("%s: session %d member %d: value mismatch across nodes", phase, sid, rd.Members[k])
				}
			}
		}
	}
}

// clearCoinPrefix is an acs.Config.Tamper that makes every agreement
// flip the real coin from round 1 on.
func clearCoinPrefix(_ uint64, _ int, st *core.Stack) {
	st.ABA.SetCoinPrefix(nil) // a no-op on the plane's idle agreement engine
}

// TestPooledServiceRefillUnderChurn is the crash/restart-mid-refill
// regression test for the coin pool: node 4 is crashed abruptly while
// sessions (and their pipelined pool refills) are in flight, the
// surviving quorum must finish every session with the one-shot handout
// ledger clean and all pool state released, and a fresh incarnation of
// node 4 must then serve a second wave on the same cluster — again
// without double handouts or leaked supplies, and with every node's
// protocol state back at baseline. Throughout, the nodes that completed
// a session agree on its members and values.
func TestPooledServiceRefillUnderChurn(t *testing.T) {
	const n = 4
	mesh := transport.NewMesh(n)
	codec := core.NewCodec()
	drvs := make([]*acs.Driver, n+1)
	nodes := make([]*node.Node, n+1)
	logs := make([]*decisionLog, n+1)
	eps := make([]transport.Transport, n+1)
	for i := 1; i <= n; i++ {
		ep, err := mesh.Endpoint(sim.ProcID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	for i := 1; i <= n; i++ {
		logs[i] = newDecisionLog()
		drvs[i], nodes[i] = newPooledServiceNode(t, i, n, int64(1000+i), codec, eps[i], logs[i])
	}
	t.Cleanup(func() {
		for i := 1; i <= n; i++ {
			nodes[i].Stop()
		}
	})

	// Wave 1: every node submits; refills pipeline behind the window.
	for i := 1; i <= n; i++ {
		for k := 0; k < 2; k++ {
			if err := drvs[i].Submit([]byte(fmt.Sprintf("w1-n%d-v%d", i, k))); err != nil {
				t.Fatalf("node %d submit: %v", i, err)
			}
		}
	}

	// Crash node 4 as soon as the first decision lands — sessions are
	// mid-flight, so dealings of later sessions are still refilling.
	churnPoll(t, "first decision", func() bool { return logs[1].count() >= 1 }, nil)
	nodes[4].Crash()

	// The surviving n-t quorum must drain its queues and converge on a
	// common completed-session count.
	survivorsQuiet := func() bool {
		c1 := drvs[1].Completed()
		for i := 1; i <= 3; i++ {
			d := drvs[i]
			if d.QueueLen() != 0 || d.InFlight() != 0 || d.Completed() != c1 {
				return false
			}
		}
		return true
	}
	churnPoll(t, "survivors quiesce", survivorsQuiet, func() {
		for i := 1; i <= 3; i++ {
			t.Logf("node %d: queue=%d inflight=%d completed=%d",
				i, drvs[i].QueueLen(), drvs[i].InFlight(), drvs[i].Completed())
		}
	})
	assertChurnBaseline(t, "after crash", nodes[1:4], drvs[1:4])
	assertChurnDecisions(t, "after crash", logs[1:4])

	// Restart node 4 as a fresh incarnation on a reset endpoint.
	ep4, err := mesh.ResetEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep4.Start(); err != nil {
		t.Fatal(err)
	}
	logs[4] = newDecisionLog()
	drvs[4], nodes[4] = newPooledServiceNode(t, 4, n, 5004, codec, ep4, logs[4])

	// Wave 2: the survivors submit first; the fresh incarnation joins
	// their sessions on traffic, which also moves its sid allocator past
	// the sessions the cluster already completed. Once it completed a
	// joined session it submits a value of its own — a session it
	// initiates itself.
	for i := 1; i <= 3; i++ {
		if err := drvs[i].Submit([]byte(fmt.Sprintf("w2-n%d", i))); err != nil {
			t.Fatalf("node %d submit: %v", i, err)
		}
	}
	churnPoll(t, "restarted node rejoins", func() bool { return logs[4].count() >= 1 }, nil)
	if err := drvs[4].Submit([]byte("w2-n4")); err != nil {
		t.Fatal(err)
	}
	allQuiet := func() bool {
		if drvs[4].Completed() < 2 {
			return false
		}
		for i := 1; i <= n; i++ {
			d := drvs[i]
			if d.QueueLen() != 0 || d.InFlight() != 0 {
				return false
			}
		}
		return survivorsQuiet()
	}
	churnPoll(t, "rebuilt cluster quiesce", allQuiet, func() {
		for i := 1; i <= n; i++ {
			t.Logf("node %d: queue=%d inflight=%d completed=%d",
				i, drvs[i].QueueLen(), drvs[i].InFlight(), drvs[i].Completed())
		}
	})
	assertChurnBaseline(t, "after restart", nodes[1:n+1], drvs[1:n+1])
	assertChurnDecisions(t, "after restart", logs[1:n+1])
	for i := 1; i <= n; i++ {
		if st, _ := drvs[i].PoolStats(); st.Refills == 0 || st.Handouts == 0 {
			t.Errorf("node %d: pool unused across churn: %+v", i, st)
		}
	}
}

// assertChurnBaseline waits for every listed node's per-session state to
// retire to zero, then asserts the pool invariants: no handout was ever
// duplicated and no supply, depth or reservation outlived its session.
// It also bounds what each driver remembers once quiet: at most the
// 4·Window·n completions a gap below them can hold back — for a fresh
// incarnation the gap is every session completed before it started, so
// what it remembers does not grow with how long the cluster ran before.
func assertChurnBaseline(t *testing.T, phase string, nodes []*node.Node, drvs []*acs.Driver) {
	t.Helper()
	churnPoll(t, phase+" baseline", func() bool {
		for _, nd := range nodes {
			c, ok := nd.ServiceCounts()
			if !ok || c.Live != 0 || c.State.Total() != 0 {
				return false
			}
		}
		return true
	}, func() {
		for _, nd := range nodes {
			c, _ := nd.ServiceCounts()
			t.Logf("node %d: live=%d retired=%d state=%d", nd.ID(), c.Live, c.Retired, c.State.Total())
		}
	})
	for i, d := range drvs {
		st, ok := d.PoolStats()
		if !ok {
			t.Fatalf("%s: node %d: pool off", phase, nodes[i].ID())
		}
		if st.DoubleHandouts != 0 {
			t.Errorf("%s: node %d: %d double handouts (one-shot violated)", phase, nodes[i].ID(), st.DoubleHandouts)
		}
		if st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
			t.Errorf("%s: node %d: pool state leaked: %+v", phase, nodes[i].ID(), st)
		}
		if got, bound := d.Remembered(), 4*churnWindow*churnN; got > bound {
			t.Errorf("%s: node %d remembers %d sessions, want at most 4·Window·n = %d", phase, nodes[i].ID(), got, bound)
		}
	}
}
