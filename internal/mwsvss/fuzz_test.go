package mwsvss_test

import (
	"bytes"
	"testing"

	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/sim"
)

// FuzzSlabDecode fuzzes the one reveal decode surface a Byzantine origin
// controls. Every slab DecodeSlab accepts names strictly ascending slots
// below MaxBatchSlots, carries exactly len(slots)·n row elements and
// re-encodes to its input; MapSlab, which reads the row width off the
// length, accepts it too and sees the same entries.
func FuzzSlabDecode(f *testing.F) {
	for _, n := range []uint8{1, 4, 7} {
		rows := make([]field.Element, 3*int(n))
		for i := range rows {
			rows[i] = field.New(uint64(1000 + i))
		}
		seed := mwsvss.EncodeSlab([]int{0, 5, mwsvss.MaxBatchSlots - 1}, rows)
		f.Add(seed, n)
		for cut := 1; cut < len(seed); cut += 7 {
			f.Add(seed[:cut], n) // truncation ladder
		}
	}
	f.Add([]byte{0, 0, 0, 0}, uint8(4))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(4))
	f.Fuzz(func(t *testing.T, b []byte, nb uint8) {
		n := int(nb%16) + 1
		slots, rows, ok := mwsvss.DecodeSlab(b, n)
		if !ok {
			return
		}
		if len(slots) == 0 || len(rows) != len(slots)*n {
			t.Fatalf("accepted %d slots with %d row elements at n = %d", len(slots), len(rows), n)
		}
		for i, s := range slots {
			if s < 0 || s >= mwsvss.MaxBatchSlots || (i > 0 && s <= slots[i-1]) {
				t.Fatalf("accepted slot list %v", slots)
			}
		}
		if enc := mwsvss.EncodeSlab(slots, rows); !bytes.Equal(enc, b) {
			t.Fatalf("re-encodes to %x, input %x", enc, b)
		}
		i := 0
		same, ok := mwsvss.MapSlab(b, func(slot int, target sim.ProcID, v field.Element) field.Element {
			if slot != slots[i/n] || int(target) != i%n+1 || v != rows[i] {
				t.Fatalf("entry %d: MapSlab saw (%d, %d, %v), want (%d, %d, %v)",
					i, slot, target, v, slots[i/n], i%n+1, rows[i])
			}
			i++
			return v
		})
		if !ok || i != len(rows) || !bytes.Equal(same, b) {
			t.Fatalf("identity MapSlab: ok %v, %d of %d entries, output %x", ok, i, len(rows), same)
		}
	})
}
