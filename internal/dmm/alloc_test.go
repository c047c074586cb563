package dmm

import (
	"testing"

	"svssba/internal/field"
	"svssba/internal/sim"
)

// TestCompleteReconstructAllocatesNothing: the session-level completion
// sweeps its pending slots through a reused bitset, not a per-call map.
func TestCompleteReconstructAllocatesNothing(t *testing.T) {
	d := New(1, nil)
	s := mwid(3, 1)
	d.BeginShare(s)
	// A 16-slot batched dealing; the first completion stamps every slot
	// and marks 4 stale, later ones only sweep.
	d.ExpectVec(4, 1, s, SourceDEAL, make([]field.Element, 16))
	d.CompleteReconstruct(s)
	if allocs := testing.AllocsPerRun(100, func() { d.CompleteReconstruct(s) }); allocs != 0 {
		t.Fatalf("CompleteReconstruct: %v allocs, want 0", allocs)
	}
}

// BenchmarkDMMSessionLifecycle runs one MW session's expectations
// through the DMM as the MW dealer sees them at n=7: n DEAL and n² ACK
// tuples installed, every event of the session checked, every tuple
// resolved by its reveal, the session completed.
func BenchmarkDMMSessionLifecycle(b *testing.B) {
	const n = 7
	d := New(1, nil)
	b.ReportAllocs()
	round := uint64(0)
	for b.Loop() {
		round++
		s := mwid(1, round)
		d.BeginShare(s)
		for l := sim.ProcID(1); l <= n; l++ {
			d.ExpectVec(l, 1, s, SourceDEAL, []field.Element{field.New(1)})
			for j := sim.ProcID(1); j <= n; j++ {
				d.ExpectVec(l, j, s, SourceACK, []field.Element{field.New(uint64(j))})
			}
		}
		for l := sim.ProcID(1); l <= n; l++ {
			for j := sim.ProcID(1); j <= n; j++ {
				if d.Check(l, s) != Forward {
					b.Fatal("event not forwarded")
				}
				d.ObserveValueBroadcast(l, s, j, 0, field.New(uint64(j)))
			}
		}
		d.CompleteReconstruct(s)
		if d.PendingCount() != 0 {
			b.Fatalf("%d tuples left", d.PendingCount())
		}
	}
}
