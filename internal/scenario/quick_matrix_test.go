package scenario_test

import (
	"testing"

	"svssba/internal/scenario"
)

// quickTestMatrix returns the matrix TestQuickMatrixInvariants sweeps:
// the whole quick matrix, or a representative slice of it under -short
// (one benign and one adversarial scheduler, three behaviours, the n4
// scale — the full sweep costs a minute of simulated deliveries on two
// cores).
func quickTestMatrix(short bool) *scenario.Matrix {
	m := scenario.Quick()
	if !short {
		return m
	}
	m.Schedulers = m.Schedulers[:2] // random, fifo
	m.Behaviors = []scenario.Behavior{
		scenario.NoFault(),
		scenario.CrashBudget(),
		scenario.Unanimous1VoteFlip(),
	}
	m.Scales = m.Scales[:1] // n4
	return m
}

// TestQuickMatrixInvariants runs every cell of the quick scenario matrix
// once and fails on any agreement, validity or termination violation or
// cell error — the `cmd/scenario -quick` CI gate, inside `go test`.
//
// Every cell is its own parallel subtest, so the matrix shards over
// `go test -parallel` instead of idling a core behind the slowest cell;
// the cell list is the matrix's own enumeration, so no cell can drop
// out.
func TestQuickMatrixInvariants(t *testing.T) {
	m := quickTestMatrix(testing.Short())
	t.Run("cells", func(t *testing.T) {
		for _, cell := range m.Cells() {
			id := cell.ID
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				cr, err := scenario.Replay(m, id)
				if err != nil {
					t.Fatal(err)
				}
				if cr.Err != "" {
					t.Fatalf("cell error: %s", cr.Err)
				}
				for _, v := range cr.Violations {
					t.Error(v)
				}
			})
		}
	})
}
