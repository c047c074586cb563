package svssba_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"svssba"
	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// serviceWait bounds one service-test phase; deadline-aware helpers
// trim it to the test deadline.
const serviceWait = 2 * time.Minute

// collectDecisions drains want decisions from each node, keyed by
// session id.
func collectDecisions(t *testing.T, cl *svssba.ServiceCluster, want int) []map[uint64]svssba.ServiceDecision {
	t.Helper()
	n := cl.N()
	out := make([]map[uint64]svssba.ServiceDecision, n+1)
	deadline := time.After(testBudget(t, serviceWait))
	for i := 1; i <= n; i++ {
		out[i] = make(map[uint64]svssba.ServiceDecision, want)
		for len(out[i]) < want {
			select {
			case d, ok := <-cl.Node(i).Decisions():
				if !ok {
					t.Fatalf("node %d: decision stream closed after %d/%d", i, len(out[i]), want)
				}
				if _, dup := out[i][d.Session]; dup {
					t.Fatalf("node %d: session %d decided twice", i, d.Session)
				}
				out[i][d.Session] = d
			case <-deadline:
				t.Fatalf("node %d: %d/%d decisions before deadline", i, len(out[i]), want)
			}
		}
	}
	return out
}

// waitServiceQuiescent polls until every node drained its submit queue,
// has no session in flight, and all nodes agree on the completed-session
// count (the count is nondeterministic — how many sessions form depends
// on how submits interleave with traffic joins — but all nodes must
// converge on the same set). Returns the common count.
func waitServiceQuiescent(t *testing.T, cl *svssba.ServiceCluster) int {
	t.Helper()
	deadline := time.Now().Add(testBudget(t, serviceWait))
	for {
		quiet := true
		completed := cl.Node(1).Completed()
		for i := 1; i <= cl.N(); i++ {
			nd := cl.Node(i)
			if nd.QueueLen() != 0 || nd.InFlight() != 0 || nd.Completed() != completed {
				quiet = false
				break
			}
		}
		if quiet {
			return completed
		}
		if time.Now().After(deadline) {
			for i := 1; i <= cl.N(); i++ {
				nd := cl.Node(i)
				t.Logf("node %d: queue=%d inflight=%d completed=%d", i, nd.QueueLen(), nd.InFlight(), nd.Completed())
			}
			t.Fatal("service did not quiesce")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// testBudget returns base trimmed to the test binary's deadline (minus
// headroom for teardown), the same pattern the n10/n13 tests use.
func testBudget(t *testing.T, base time.Duration) time.Duration {
	t.Helper()
	if dl, ok := t.Deadline(); ok {
		if until := time.Until(dl) - 10*time.Second; until < base {
			if until <= 0 {
				t.Skip("not enough time left in test deadline")
			}
			return until
		}
	}
	return base
}

// assertSameSubsets checks the per-session cross-node ACS contract:
// identical member sets and values everywhere, at least n−t members.
func assertSameSubsets(t *testing.T, cl *svssba.ServiceCluster, decs []map[uint64]svssba.ServiceDecision) {
	t.Helper()
	n, tt := cl.N(), cl.T()
	for sid, ref := range decs[1] {
		if len(ref.Members) < n-tt {
			t.Errorf("session %d: subset %v smaller than n-t=%d", sid, ref.Members, n-tt)
		}
		for i := 2; i <= n; i++ {
			d, ok := decs[i][sid]
			if !ok {
				t.Errorf("node %d: missing session %d", i, sid)
				continue
			}
			if fmt.Sprint(d.Members) != fmt.Sprint(ref.Members) {
				t.Errorf("session %d: node %d members %v != node 1 members %v", sid, i, d.Members, ref.Members)
				continue
			}
			for k := range ref.Values {
				if !bytes.Equal(d.Values[k], ref.Values[k]) {
					t.Errorf("session %d member %d: node %d value %q != node 1 value %q",
						sid, ref.Members[k], i, d.Values[k], ref.Values[k])
				}
			}
		}
	}
}

// waitServiceBaseline polls until every node's live scope count and
// protocol state return to zero — the per-session retirement contract.
func waitServiceBaseline(t *testing.T, cl *svssba.ServiceCluster) {
	t.Helper()
	deadline := time.Now().Add(testBudget(t, serviceWait))
	for {
		done := true
		for i := 1; i <= cl.N(); i++ {
			c, ok := cl.Node(i).Counts()
			if !ok {
				t.Fatalf("node %d: not a service node", i)
			}
			if c.Live != 0 || c.State.Total() != 0 {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for i := 1; i <= cl.N(); i++ {
				c, _ := cl.Node(i).Counts()
				t.Logf("node %d: live=%d retired=%d stateTotal=%d", i, c.Live, c.Retired, c.State.Total())
			}
			t.Fatal("service state did not return to baseline")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceCommonSubset runs concurrent ACS sessions over a chan
// cluster: every node submits values, every session must produce the
// same ≥ n−t subset on every node, and all per-session state must
// retire back to zero.
func TestServiceCommonSubset(t *testing.T) {
	const sessions = 5
	cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 42, Window: sessions})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= cl.N(); i++ {
		for k := 0; k < sessions; k++ {
			if err := cl.Node(i).Submit([]byte(fmt.Sprintf("n%d-v%d", i, k))); err != nil {
				t.Fatalf("node %d submit %d: %v", i, k, err)
			}
		}
	}
	total := waitServiceQuiescent(t, cl)
	if total < sessions {
		// Every node drains `sessions` values, one per joined session, so
		// at least that many sessions must have formed.
		t.Errorf("completed %d sessions, want >= %d", total, sessions)
	}
	decs := collectDecisions(t, cl, total)
	assertSameSubsets(t, cl, decs)
	waitServiceBaseline(t, cl)
	for i := 1; i <= cl.N(); i++ {
		if errs := cl.Node(i).Errs(); len(errs) > 0 {
			t.Errorf("node %d: runtime errors: %v", i, errs[0])
		}
	}
}

// TestServiceSingleSubmitter runs a session only one node proposes
// into: peers join on traffic with empty proposals, and the subset
// still forms. Asynchrony alone guarantees equal subsets of at least
// n−t members, and that member 2's value, where member 2 is in, is the
// submitted one byte for byte. That member 2 is in is the schedule's
// doing: nodes 1, 3 and 4 hold their own proposals until they accepted
// node 2's (holdOwnProposalsUntil). Each of them then inputs 1 to
// agreement 2 before it could input 0: input 0 waits for n−t = 3
// agreements decided 1 besides agreement 2, so its own among them, and
// an agreement decides 1 only after some honest node accepted its
// proposal. With every honest input 1, agreement 2 decides 1. Without
// the hold, nodes 1, 3 and 4's agreements could all decide 1 first
// (about 1 run in 1,250 under CPU contention).
func TestServiceSingleSubmitter(t *testing.T) {
	var released atomic.Int32
	cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 7, Tamper: holdOwnProposalsUntil(2, &released)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Node(2).Submit([]byte("only")); err != nil {
		t.Fatal(err)
	}
	decs := collectDecisions(t, cl, 1)
	assertSameSubsets(t, cl, decs)
	for _, d := range decs[1] {
		found := false
		for k, m := range d.Members {
			if m != 2 {
				continue
			}
			found = true
			if !bytes.Equal(d.Values[k], []byte("only")) {
				t.Errorf("member 2's value %q, want %q", d.Values[k], "only")
			}
		}
		if !found {
			t.Errorf("subset %v misses submitter's value", d.Members)
		}
	}
	// n−t members: at least two of nodes 1, 3 and 4 sent a held proposal.
	if got := released.Load(); got < 2 {
		t.Errorf("%d nodes released a held proposal, want at least 2", got)
	}
	waitServiceBaseline(t, cl)
}

// holdOwnProposalsUntil returns a ServiceConfig.Tamper under which each
// node but from holds its own proposal's type 1s until it accepted
// from's proposal, and sends them then; released counts the nodes that
// did.
func holdOwnProposalsUntil(from int, released *atomic.Int32) func(id int, sid uint64, slot int, st *core.Stack) {
	return func(id int, _ uint64, slot int, st *core.Stack) {
		if slot != 0 || id == from {
			return
		}
		type send struct {
			to sim.ProcID
			p  sim.Payload
		}
		var (
			done bool
			ctx  sim.Context
			held []send
		)
		st.Node.SetSendTamper(func(c sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			w, ok := p.(rb.WeakMsg)
			if done || !ok || w.Phase != rb.Type1 || w.Origin != sim.ProcID(id) || w.Tag.Proto != proto.ProtoACS {
				return p, true
			}
			ctx = c
			held = append(held, send{to, p})
			return nil, false
		})
		st.Node.ObserveBroadcast(proto.ProtoACS, func(origin sim.ProcID, _ proto.Tag, _ []byte) {
			if done || origin != sim.ProcID(from) {
				return
			}
			done = true
			for _, h := range held {
				ctx.Send(h.to, h.p)
			}
			if len(held) > 0 {
				released.Add(1)
			}
		})
	}
}
