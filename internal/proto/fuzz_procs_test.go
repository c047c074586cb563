package proto_test

import (
	"bytes"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// FuzzProcSetDecode feeds arbitrary bytes to the process-set decoder,
// the broadcast value of every L, M, attach, G and gather set.
// DecodeProcSet must never panic, every set it accepts must pass
// ValidProcs, and every accepted set must re-encode to its input.
func FuzzProcSetDecode(f *testing.F) {
	var w proto.Writer
	w.Procs([]sim.ProcID{1, 3, 4, 7})
	f.Add(w.Bytes(), uint8(7))
	f.Add([]byte{0}, uint8(4))                   // the empty set
	f.Add([]byte{2, 4, 1}, uint8(4))             // unsorted, kept in order
	f.Add([]byte{2, 1, 1}, uint8(4))             // a duplicate
	f.Add([]byte{1, 5}, uint8(4))                // an id above n
	f.Add([]byte{1, 0x81, 0x00}, uint8(4))       // an overlong id
	f.Add([]byte{1, 0x80, 0x80, 0x04}, uint8(4)) // an id wider than 16 bits
	f.Add([]byte{0xff, 0xff, 0x03, 1}, uint8(4)) // a count past the input
	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		ps, ok := proto.DecodeProcSet(b, int(n))
		if !ok {
			return
		}
		if !proto.ValidProcs(ps, int(n)) {
			t.Fatalf("accepted set %v fails ValidProcs for n=%d", ps, n)
		}
		var w proto.Writer
		w.Procs(ps)
		if !bytes.Equal(w.Bytes(), b) {
			t.Fatalf("set %v accepted from a non-canonical encoding:\n  in:  %x\n  out: %x", ps, b, w.Bytes())
		}
	})
}
