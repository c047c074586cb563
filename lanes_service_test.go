package svssba_test

import (
	"bytes"
	"fmt"
	"testing"

	"svssba"
)

// runLanesWorkload boots a service cluster with the given lane count
// over one cell of the pool×wire matrix, drives the standard
// concurrent-session workload, and returns node 1's decisions after
// verifying the full service contract (identical ≥ n−t subsets on
// every node, state retired to baseline, zero lane-ring drops).
func runLanesWorkload(t *testing.T, lanes int, pool bool, wire string, sessions int) map[uint64]svssba.ServiceDecision {
	t.Helper()
	cl, err := svssba.StartService(svssba.ServiceConfig{
		N: 4, Seed: 42, Window: sessions, Lanes: lanes, Pool: pool, Wire: wire,
	})
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
		st := cl.Node(i).Stats()
		if st.Lanes != lanes {
			t.Errorf("node %d: resolved %d lanes, want %d", i, st.Lanes, lanes)
		}
		if st.RingDrops != 0 {
			t.Errorf("node %d: %d lane-ring drops on a live run", i, st.RingDrops)
		}
		if errs := cl.Node(i).Errs(); len(errs) > 0 {
			t.Errorf("node %d: runtime errors: %v", i, errs[0])
		}
	}
	return decs[1]
}

// TestServiceLanesMatrix is the lanes 1-vs-k equivalence sweep over
// the pool×wire matrix: every lane count must satisfy the identical
// service contract on the same workload, every decided value must be
// one of the submitted values and decided at most once (integrity —
// lanes must not corrupt, cross-wire or replay payloads), and the
// multi-lane runs must not lose traffic (zero ring drops, asserted in
// runLanesWorkload). Two lanes put about half the sessions on the
// ingress goroutine (lane 0) and half on one worker, the boundary
// between the inline lane and a ring-fed one.
func TestServiceLanesMatrix(t *testing.T) {
	const sessions = 4
	for _, pool := range []bool{false, true} {
		for _, wire := range []string{"v1", "v2"} {
			pool, wire := pool, wire
			t.Run(fmt.Sprintf("pool=%v_wire=%s", pool, wire), func(t *testing.T) {
				t.Parallel()
				submitted := make(map[string]bool)
				for i := 1; i <= 4; i++ {
					for k := 0; k < sessions; k++ {
						submitted[fmt.Sprintf("n%d-v%d", i, k)] = true
					}
				}
				for _, lanes := range []int{1, 2, 4} {
					decs := runLanesWorkload(t, lanes, pool, wire, sessions)
					decided := make(map[string]int)
					for _, d := range decs {
						for k, m := range d.Members {
							v := string(d.Values[k])
							if v == "" {
								// A node that joins a peer's session with an
								// empty submit queue proposes the empty value
								// — filler, not a submission.
								continue
							}
							decided[v]++
							if !submitted[v] {
								t.Errorf("lanes=%d: decided value %q (member %d) was never submitted", lanes, v, m)
							}
						}
					}
					for v, cnt := range decided {
						if cnt != 1 {
							t.Errorf("lanes=%d: value %q decided %d times, want once", lanes, v, cnt)
						}
					}
				}
			})
		}
	}
}

// TestServiceLanesValuesIntact spot-checks byte-level value integrity
// through the multi-lane zero-copy receive path: with values large
// enough to stress buffer reuse, every decided value on every node
// must byte-match what some node submitted.
func TestServiceLanesValuesIntact(t *testing.T) {
	const sessions = 3
	cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 7, Window: sessions, Lanes: 4, Pool: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var submitted [][]byte
	for i := 1; i <= cl.N(); i++ {
		for k := 0; k < sessions; k++ {
			v := bytes.Repeat([]byte{byte(i), byte(k), 0xa5}, 300)
			submitted = append(submitted, v)
			if err := cl.Node(i).Submit(v); err != nil {
				t.Fatalf("node %d submit: %v", i, err)
			}
		}
	}
	total := waitServiceQuiescent(t, cl)
	decs := collectDecisions(t, cl, total)
	assertSameSubsets(t, cl, decs)
	for _, d := range decs[1] {
		for k, v := range d.Values {
			if len(v) == 0 {
				continue // empty-queue join filler, not a submission
			}
			match := false
			for _, s := range submitted {
				if bytes.Equal(v, s) {
					match = true
					break
				}
			}
			if !match {
				t.Errorf("session %d member %d: decided value corrupted (len %d)", d.Session, d.Members[k], len(v))
			}
		}
	}
	waitServiceBaseline(t, cl)
}
