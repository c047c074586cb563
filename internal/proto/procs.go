package proto

import (
	"svssba/internal/intern"
	"svssba/internal/sim"
)

// Process sets on the wire. Every L, M, attach, gather and G set is a
// broadcast value written with Writer.Procs: a bitmap (id p is bit
// (p−1) mod 7 of byte ⌊(p−1)/7⌋, every byte but the last with its high
// bit set, the last byte nonzero but for the empty set's single zero
// byte). A set has exactly one encoding, so RB value equality is set
// equality whatever order the sender held the ids in, and ids decode
// ascending. An n = 7 set costs one byte.

// ValidProcs reports whether ps contains only process ids in 1..n with
// no duplicates — the shared validation rule for every process-set
// broadcast value (attach sets, gather sets, L/M/G sets). Dedup is a
// stack bitset, so validation is allocation-free for n ≤ 64.
func ValidProcs(ps []sim.ProcID, n int) bool {
	var seen intern.ProcSet
	for _, p := range ps {
		if p < 1 || int(p) > n || !seen.Add(p) {
			return false
		}
	}
	return true
}

// EncodeProcSet encodes process set ps as a broadcast value (see
// Writer.Procs); the order of ps does not matter.
func EncodeProcSet(ps []sim.ProcID) []byte {
	var w Writer
	w.Procs(ps)
	return w.Bytes()
}

// DecodeProcSet decodes an encoded process set and validates it with
// ValidProcs. Every layer that broadcasts process sets decodes through
// this single helper so the validation rule cannot diverge between
// layers.
func DecodeProcSet(b []byte, n int) ([]sim.ProcID, bool) {
	r := getReader(b)
	defer putReader(r)
	ps := r.Procs()
	if r.Close() != nil || !ValidProcs(ps, n) {
		return nil, false
	}
	return ps, true
}
