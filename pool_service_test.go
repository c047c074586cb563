package svssba_test

import (
	"fmt"
	"testing"

	"svssba"
	"svssba/internal/core"
)

// realCoinsEveryRound is a ServiceConfig.Tamper that clears the ACS
// driver's known-coin prefix on every agreement of every node alike, so
// each voting round flips the real shunning coin — what the pool tests
// need: a fault-free session otherwise decides inside the prefix and
// never touches the pool.
func realCoinsEveryRound(_ int, _ uint64, _ int, st *core.Stack) {
	st.ABA.SetCoinPrefix(nil) // a no-op on the plane's idle agreement engine
}

// TestServicePooledCommonSubset runs the concurrent-session workload of
// TestServiceCommonSubset with the coin-dealing pool on and real coins
// in every round: the ACS contract (identical ≥ n−t subsets on every
// node) must hold unchanged, all per-session state — pool supplies
// included — must retire back to zero, and the one-shot handout ledger
// must show no reuse.
func TestServicePooledCommonSubset(t *testing.T) {
	const sessions = 5
	cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 42, Window: sessions, Pool: true, Tamper: realCoinsEveryRound})
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
		t.Errorf("completed %d sessions, want >= %d", total, sessions)
	}
	decs := collectDecisions(t, cl, total)
	assertSameSubsets(t, cl, decs)
	waitServiceBaseline(t, cl)
	for i := 1; i <= cl.N(); i++ {
		st, ok := cl.Node(i).PoolStats()
		if !ok {
			t.Fatalf("node %d: pool off", i)
		}
		if st.DoubleHandouts != 0 {
			t.Errorf("node %d: %d double handouts (one-shot violated)", i, st.DoubleHandouts)
		}
		if st.Live != 0 {
			t.Errorf("node %d: %d pool supplies leaked", i, st.Live)
		}
		if st.Depth != 0 || st.Reserved != 0 {
			t.Errorf("node %d: pool gauges not drained: depth=%d reserved=%d", i, st.Depth, st.Reserved)
		}
		if st.Refills == 0 || st.Handouts == 0 {
			t.Errorf("node %d: pool unused: refills=%d handouts=%d", i, st.Refills, st.Handouts)
		}
		if errs := cl.Node(i).Errs(); len(errs) > 0 {
			t.Errorf("node %d: runtime errors: %v", i, errs[0])
		}
	}
}

// TestServicePooledExhaustionFallback runs the pool at its shallowest
// coverage (PoolRounds 1): any agreement whose coin needs a second
// round exhausts its pooled slots and falls back to classic per-round
// dealing on the agreement's own scope. The ACS contract, the one-shot
// ledger, and the drain-to-zero invariants must all survive the mixed
// pooled/classic regime.
func TestServicePooledExhaustionFallback(t *testing.T) {
	const sessions = 4
	cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 99, Window: sessions, Pool: true, PoolRounds: 1, Tamper: realCoinsEveryRound})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= cl.N(); i++ {
		for k := 0; k < sessions; k++ {
			if err := cl.Node(i).Submit([]byte(fmt.Sprintf("x%d-v%d", i, k))); err != nil {
				t.Fatalf("node %d submit %d: %v", i, k, err)
			}
		}
	}
	total := waitServiceQuiescent(t, cl)
	if total < sessions {
		t.Errorf("completed %d sessions, want >= %d", total, sessions)
	}
	decs := collectDecisions(t, cl, total)
	assertSameSubsets(t, cl, decs)
	waitServiceBaseline(t, cl)
	for i := 1; i <= cl.N(); i++ {
		st, ok := cl.Node(i).PoolStats()
		if !ok {
			t.Fatalf("node %d: pool off", i)
		}
		if st.DoubleHandouts != 0 {
			t.Errorf("node %d: %d double handouts after exhaustion", i, st.DoubleHandouts)
		}
		if st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
			t.Errorf("node %d: pool state leaked: %+v", i, st)
		}
		if st.Handouts == 0 {
			t.Errorf("node %d: pooled rounds never consumed", i)
		}
		if errs := cl.Node(i).Errs(); len(errs) > 0 {
			t.Errorf("node %d: runtime errors: %v", i, errs[0])
		}
	}
}

// TestServicePooledRealCoinAfterPrefix drives the path a contested
// session takes and a fault-free workload never does: both prefix
// rounds pass without a decision, so the first coin every agreement
// flips is coin round 3, dealt on demand and drawn from pool slot 3.
// The prefix (0, 0) — installed on every node alike — forces it: the
// agreements' inputs are (almost all) 1, which neither prefix round can
// decide. The ACS contract, the one-shot ledger and the drain-to-zero
// invariants must hold, the pool must have been used, and with the
// default PoolRounds 4 rounds past the fourth fall back to classic
// dealing on the agreement's own scope.
func TestServicePooledRealCoinAfterPrefix(t *testing.T) {
	const sessions = 3
	neverOne := []uint8{0, 0}
	cl, err := svssba.StartService(svssba.ServiceConfig{
		N: 4, Seed: 7, Window: sessions, Pool: true,
		Tamper: func(_ int, _ uint64, _ int, st *core.Stack) { st.ABA.SetCoinPrefix(neverOne) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= cl.N(); i++ {
		for k := 0; k < sessions; k++ {
			if err := cl.Node(i).Submit([]byte(fmt.Sprintf("r%d-v%d", i, k))); err != nil {
				t.Fatalf("node %d submit %d: %v", i, k, err)
			}
		}
	}
	total := waitServiceQuiescent(t, cl)
	decs := collectDecisions(t, cl, total)
	assertSameSubsets(t, cl, decs)
	waitServiceBaseline(t, cl)
	for i := 1; i <= cl.N(); i++ {
		var flips uint64
		for _, d := range decs[i] {
			flips += d.CoinRounds
		}
		st, _ := cl.Node(i).PoolStats()
		if flips == 0 || st.Refills == 0 || st.Handouts == 0 {
			t.Errorf("node %d: real coin not reached: flips=%d pool=%+v", i, flips, st)
		}
		if st.Refills > int64(len(decs[i])) {
			t.Errorf("node %d: %d dealings for %d sessions, want at most one per session", i, st.Refills, len(decs[i]))
		}
		if st.DoubleHandouts != 0 || st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
			t.Errorf("node %d: pool contract broken: %+v", i, st)
		}
		if errs := cl.Node(i).Errs(); len(errs) > 0 {
			t.Errorf("node %d: runtime errors: %v", i, errs[0])
		}
	}
}
