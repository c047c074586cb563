package svssba_test

import (
	"bytes"
	"fmt"
	"testing"

	"svssba"
)

// TestServiceValueIntegrity runs the standard concurrent-session
// workload with and without the coin pool and checks the full service
// contract (identical ≥ n−t subsets on every node, state retired to
// baseline, no runtime errors) plus integrity: every decided value was
// submitted by some node and is decided at most once — the node must
// not corrupt, cross-wire or replay payloads.
func TestServiceValueIntegrity(t *testing.T) {
	const sessions = 4
	for _, pool := range []bool{false, true} {
		t.Run(fmt.Sprintf("pool=%v", pool), func(t *testing.T) {
			t.Parallel()
			cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 42, Window: sessions, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			submitted := make(map[string]bool)
			for i := 1; i <= cl.N(); i++ {
				for k := 0; k < sessions; k++ {
					v := fmt.Sprintf("n%d-v%d", i, k)
					submitted[v] = true
					if err := cl.Node(i).Submit([]byte(v)); err != nil {
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
				if errs := cl.Node(i).Errs(); len(errs) > 0 {
					t.Errorf("node %d: runtime errors: %v", i, errs[0])
				}
			}
			decided := make(map[string]int)
			for _, d := range decs[1] {
				for k, m := range d.Members {
					v := string(d.Values[k])
					if v == "" {
						// A node that joins a peer's session with an empty
						// submit queue proposes the empty value — filler,
						// not a submission.
						continue
					}
					decided[v]++
					if !submitted[v] {
						t.Errorf("decided value %q (member %d) was never submitted", v, m)
					}
				}
			}
			for v, cnt := range decided {
				if cnt != 1 {
					t.Errorf("value %q decided %d times, want once", v, cnt)
				}
			}
		})
	}
}

// TestServiceValuesIntact spot-checks byte-level value integrity
// through the zero-copy receive path: with values large enough to
// stress buffer reuse, every decided value on every node must
// byte-match what some node submitted.
func TestServiceValuesIntact(t *testing.T) {
	const sessions = 3
	cl, err := svssba.StartService(svssba.ServiceConfig{N: 4, Seed: 7, Window: sessions, Pool: true})
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
