package mwsvss_test

import (
	"bytes"
	"testing"

	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/sim"
)

// FuzzSlabDecode fuzzes the one reveal decode surface a Byzantine origin
// controls. Every slab the engine's parser accepts at width n names
// strictly ascending slots below MaxBatchSlots, carries exactly
// len(slots)·n row elements and re-encodes to its input; MapSlab, which
// reads the row width off the length, accepts it too and rewrites it to
// itself under the identity.
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
		m, width, ok := mwsvss.ParseSlab(b, n)
		if !ok {
			return
		}
		var slots []int
		var rows []field.Element
		same, mapped := mwsvss.MapSlab(b, func(slot int, target sim.ProcID, v field.Element) field.Element {
			if target == 1 {
				slots = append(slots, slot)
			}
			if int(target) != len(rows)%n+1 {
				t.Fatalf("entry %d: MapSlab saw polynomial %d of a width-%d slab", len(rows), target, n)
			}
			rows = append(rows, v)
			return v
		})
		if !mapped || width != n || m != len(slots) || len(slots) == 0 || len(rows) != len(slots)*n {
			t.Fatalf("accepted %d slots at width %d; MapSlab (ok %v) saw %d slots, %d elements at n = %d",
				m, width, mapped, len(slots), len(rows), n)
		}
		for i, s := range slots {
			if s < 0 || s >= mwsvss.MaxBatchSlots || (i > 0 && s <= slots[i-1]) {
				t.Fatalf("accepted slot list %v", slots)
			}
		}
		if enc := mwsvss.EncodeSlab(slots, rows); !bytes.Equal(enc, b) || !bytes.Equal(same, b) {
			t.Fatalf("re-encodes to %x, identity MapSlab gives %x, input %x", enc, same, b)
		}
	})
}
