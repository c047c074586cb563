package scenario_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"svssba/internal/scenario"
)

// quickParityMatrix returns the matrix the parity test sweeps: the whole
// quick matrix, or a representative slice of it under -short (one
// benign and one adversarial scheduler, three behaviours, the n4 scale —
// the full sweep costs minutes of simulated deliveries on one core).
func quickParityMatrix(short bool) *scenario.Matrix {
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

// TestBatchedUnbatchedParity is the batching safety contract, checked
// across the quick scenario matrix: with the same seed, toggling
// Batching changes nothing but the Frames counter — decisions,
// violations, logical payload stats, step counts and round counts are
// byte-identical. Batching is a frame-layer concern; it must never leak
// into protocol behaviour.
//
// Every cell is its own parallel subtest running its plain and batched
// twin back to back, so the matrix shards over `go test -parallel`
// instead of idling a core behind each pass's slowest cell; the cell
// list is the matrix's own enumeration, so no cell can drop out.
func TestBatchedUnbatchedParity(t *testing.T) {
	plain := quickParityMatrix(testing.Short())
	batched := quickParityMatrix(testing.Short())
	batched.Batching = true

	var savedFrames atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for _, cell := range plain.Cells() {
			id := cell.ID
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				p, err := scenario.Replay(plain, id)
				if err != nil {
					t.Fatal(err)
				}
				b, err := scenario.Replay(batched, id)
				if err != nil {
					t.Fatal(err)
				}
				savedFrames.Add(checkCellParity(t, p, b))
			})
		}
	})
	// The model must actually coalesce somewhere in the matrix, or the
	// frame counter is vacuous.
	if !t.Failed() && savedFrames.Load() == 0 {
		t.Fatal("batching saved zero frames across the matrix")
	}
}

// checkCellParity compares one cell's unbatched and batched runs and
// returns the frames batching saved.
func checkCellParity(t *testing.T, p, b scenario.CellResult) int64 {
	t.Helper()
	if len(p.Violations) != 0 || len(b.Violations) != 0 {
		t.Fatalf("invariant violations: plain %v, batched %v", p.Violations, b.Violations)
	}
	if p.Err != "" || b.Err != "" {
		t.Fatalf("cell errors: plain %q, batched %q", p.Err, b.Err)
	}
	pr, br := p.Result, b.Result
	if !reflect.DeepEqual(pr.Decisions, br.Decisions) {
		t.Errorf("decisions differ: %v vs %v", pr.Decisions, br.Decisions)
	}
	if !reflect.DeepEqual(pr.MsgsByKind, br.MsgsByKind) {
		t.Errorf("logical payload stats differ:\n plain   %v\n batched %v", pr.MsgsByKind, br.MsgsByKind)
	}
	if pr.Messages != br.Messages || pr.Bytes != br.Bytes {
		t.Errorf("logical totals differ: %d/%dB vs %d/%dB", pr.Messages, pr.Bytes, br.Messages, br.Bytes)
	}
	if pr.Steps != br.Steps || pr.VirtualTime != br.VirtualTime || pr.MaxRound != br.MaxRound {
		t.Errorf("schedule diverged: steps %d/%d vtime %d/%d rounds %d/%d",
			pr.Steps, br.Steps, pr.VirtualTime, br.VirtualTime, pr.MaxRound, br.MaxRound)
	}
	if !reflect.DeepEqual(pr.Shuns, br.Shuns) {
		t.Errorf("shun sequences differ")
	}
	// Frames count what crosses the network, so sends dropped at a
	// crashed endpoint never become frames: without crash faults the
	// unbatched frame count equals the payload count exactly.
	if pr.Frames > pr.Messages {
		t.Errorf("unbatched frames %d exceed messages %d", pr.Frames, pr.Messages)
	}
	if p.Cell.Behavior == "none" && pr.Frames != pr.Messages {
		t.Errorf("unbatched frames %d != messages %d in a fault-free cell", pr.Frames, pr.Messages)
	}
	if br.Frames > pr.Frames {
		t.Errorf("batched frames %d exceed unbatched %d", br.Frames, pr.Frames)
	}
	return pr.Frames - br.Frames
}
