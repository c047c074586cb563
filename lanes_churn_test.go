package svssba

import (
	"fmt"
	"sync"
	"testing"

	"svssba/internal/acs"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// decisionLog records one node's decisions keyed by session, safe to
// write from any lane goroutine (OnDecide runs on the completing
// scope's lane on a multi-lane node).
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

// newLanedServiceNode builds one pooled multi-lane service-node
// incarnation bound to ep: the pool_churn wiring (real coins in every
// round included) plus Lanes 4 and the acs lane key, so crash/rejoin
// churn runs with scopes sharded across four worker goroutines per
// node.
func newLanedServiceNode(t *testing.T, i, n int, seed int64, codec *proto.Codec, ep transport.Transport, log *decisionLog) (*acs.Driver, *node.Node) {
	t.Helper()
	drv, err := acs.New(acs.Config{
		N: n, T: 1, Self: sim.ProcID(i), Wire: "v2", Window: churnWindow,
		Pool: true, PoolRounds: 1,
		OnDecide: log.add,
		Tamper:   clearCoinPrefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		ID: sim.ProcID(i), N: n, T: 1, Seed: seed,
		Codec: codec, Batching: true, Service: drv,
		Lanes: 4, LaneKey: acs.LaneKey,
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

// assertLaneChurnDecisions checks subset equality across the listed
// nodes: every session all of them completed must carry identical
// members and values everywhere.
func assertLaneChurnDecisions(t *testing.T, phase string, logs []*decisionLog) {
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

// TestLanedServiceChurn is the multi-lane crash/rejoin test the race
// job runs: a 4-node pooled cluster with 4 lanes per node loses node 4
// abruptly mid-window, the survivors finish every session with
// identical subsets and retire all state to baseline, then a fresh
// incarnation of node 4 rejoins and serves a second wave — with every
// node's lane rings clean (zero live-run drops) throughout.
func TestLanedServiceChurn(t *testing.T) {
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
		drvs[i], nodes[i] = newLanedServiceNode(t, i, n, int64(2000+i), codec, eps[i], logs[i])
	}
	t.Cleanup(func() {
		for i := 1; i <= n; i++ {
			nodes[i].Stop()
		}
	})

	// Wave 1: every node submits; sessions shard across lanes by sid.
	for i := 1; i <= n; i++ {
		for k := 0; k < 2; k++ {
			if err := drvs[i].Submit([]byte(fmt.Sprintf("lw1-n%d-v%d", i, k))); err != nil {
				t.Fatalf("node %d submit: %v", i, err)
			}
		}
	}

	// Crash node 4 as soon as the first decision lands, mid-window.
	churnPoll(t, "first decision", func() bool { return logs[1].count() >= 1 }, nil)
	nodes[4].Crash()

	survivorsQuiet := func() bool {
		c1 := drvs[1].Completed()
		for i := 1; i <= 3; i++ {
			d := drvs[i]
			if d.QueueLen() != 0 || d.InFlight() != 0 || d.Starting() != 0 || d.Completed() != c1 {
				return false
			}
		}
		return true
	}
	churnPoll(t, "survivors quiesce", survivorsQuiet, func() {
		for i := 1; i <= 3; i++ {
			t.Logf("node %d: queue=%d inflight=%d starting=%d completed=%d",
				i, drvs[i].QueueLen(), drvs[i].InFlight(), drvs[i].Starting(), drvs[i].Completed())
		}
	})
	assertChurnBaseline(t, "after crash", nodes[1:4], drvs[1:4])
	assertLaneChurnDecisions(t, "after crash", logs[1:4])
	for i := 1; i <= 3; i++ {
		if st := nodes[i].Stats(); st.Lanes != 4 || st.RingDrops != 0 {
			t.Errorf("node %d: lanes=%d ringDrops=%d, want 4 lanes and 0 drops", i, st.Lanes, st.RingDrops)
		}
	}

	// Restart node 4 as a fresh incarnation on a reset endpoint.
	ep4, err := mesh.ResetEndpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep4.Start(); err != nil {
		t.Fatal(err)
	}
	logs[4] = newDecisionLog()
	drvs[4], nodes[4] = newLanedServiceNode(t, 4, n, 6004, codec, ep4, logs[4])

	// Wave 2: survivors submit, the fresh incarnation joins on traffic,
	// then initiates a session of its own.
	for i := 1; i <= 3; i++ {
		if err := drvs[i].Submit([]byte(fmt.Sprintf("lw2-n%d", i))); err != nil {
			t.Fatalf("node %d submit: %v", i, err)
		}
	}
	churnPoll(t, "restarted node rejoins", func() bool { return logs[4].count() >= 1 }, nil)
	if err := drvs[4].Submit([]byte("lw2-n4")); err != nil {
		t.Fatal(err)
	}
	allQuiet := func() bool {
		if drvs[4].Completed() < 2 {
			return false
		}
		for i := 1; i <= n; i++ {
			d := drvs[i]
			if d.QueueLen() != 0 || d.InFlight() != 0 || d.Starting() != 0 {
				return false
			}
		}
		return survivorsQuiet()
	}
	churnPoll(t, "rebuilt cluster quiesce", allQuiet, func() {
		for i := 1; i <= n; i++ {
			t.Logf("node %d: queue=%d inflight=%d starting=%d completed=%d",
				i, drvs[i].QueueLen(), drvs[i].InFlight(), drvs[i].Starting(), drvs[i].Completed())
		}
	})
	assertChurnBaseline(t, "after restart", nodes[1:n+1], drvs[1:n+1])
	assertLaneChurnDecisions(t, "after restart", logs[1:n+1])
	// Ring drops only ever happen at shutdown; every node here — the
	// fresh incarnation of 4 included — is still live, so all rings must
	// be clean. (The crashed first incarnation's drops died with its
	// node object.)
	for i := 1; i <= n; i++ {
		st := nodes[i].Stats()
		if st.Lanes != 4 {
			t.Errorf("node %d: %d lanes, want 4", i, st.Lanes)
		}
		if st.RingDrops != 0 {
			t.Errorf("node %d: %d live-run ring drops", i, st.RingDrops)
		}
		if ps, _ := drvs[i].PoolStats(); ps.Refills == 0 || ps.Handouts == 0 {
			t.Errorf("node %d: pool unused across churn: %+v", i, ps)
		}
	}
}
