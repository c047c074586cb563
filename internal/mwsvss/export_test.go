package mwsvss

import (
	"fmt"

	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// LSnapshot returns the L set a process broadcast for id (tests only).
func (e *Engine) LSnapshot(id proto.MWID) []sim.ProcID {
	if in := e.lookup(id); in != nil {
		return in.lSnapshot
	}
	return nil
}

// AckedBy reports whether p's share-step ack for id was accepted (tests
// only).
func (e *Engine) AckedBy(id proto.MWID, p sim.ProcID) bool {
	in := e.lookup(id)
	return in != nil && in.ackFrom.Has(p)
}

func bitsSlice(b intern.Bits) []int {
	var out []int
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// DumpState prints an instance's internal progress (tests only).
func (e *Engine) DumpState(id proto.MWID) string {
	in := e.lookup(id)
	if in == nil {
		return "no instance"
	}
	rc := in.rc
	if rc == nil {
		rc = &reconState{}
	}
	ks := map[int]int{}
	for idx, pts := range rc.kSets {
		if len(pts) > 0 {
			ks[idx] = len(pts)
		}
	}
	return fmt.Sprintf(
		"valsSet=%v polySet=%v k=%d lDone=%v L=%v mKnown=%v M=%v ok=%v shareDone=%v reconStarted=%v reconDone=%v kSets=%v pendingRV=%d fBarSet=%v",
		in.valsSet, in.myPolySet, in.k, in.lDone, in.lSnapshot, in.mKnown, in.mSet,
		in.okKnown, in.shareDone, bitsSlice(rc.reconStarted), bitsSlice(rc.reconDone),
		ks, len(rc.rvalsPending), bitsSlice(rc.fBarSet))
}

// ParseSlab runs parseSlab, the engine's in-place reveal parser, and
// returns the slot count and row width (tests only).
func ParseSlab(b []byte, n int) (m, width int, ok bool) {
	s, ok := parseSlab(b, n)
	return s.m, s.n, ok
}
