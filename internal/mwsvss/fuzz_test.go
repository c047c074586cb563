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
// len(slots)·n row elements and re-encodes to its input (so its
// varints are shortest-form); MapSlab, which
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
	for _, r := range slabRefusals {
		f.Add(r.slab, uint8(1))
	}
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

// slabRefusals are hand-built one-wide slabs the parser must refuse,
// one per rule of the varint header (also FuzzSlabDecode seeds). The
// row is the element 9.
var slabRefusals = []struct {
	name string
	slab []byte
}{
	{"no slot", []byte{0, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"more slots than MaxBatchSlots", []byte{0x81, 0x08, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"overlong count", []byte{0x81, 0x00, 0, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"overlong slot", []byte{1, 0x80, 0x00, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"slot at MaxBatchSlots", []byte{1, 0x80, 0x08, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"slots not ascending", []byte{2, 3, 3, 9, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"slot list past the input", []byte{3, 1, 2}},
	{"rows short of the slots", []byte{2, 1, 2, 9, 0, 0, 0, 0, 0, 0, 0}},
	{"element above the modulus", []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
}

// TestSlabRefusals: each non-canonical or out-of-range slab is refused
// by the engine's parser and by MapSlab, while the slab with the same
// header written canonically parses.
func TestSlabRefusals(t *testing.T) {
	good := mwsvss.EncodeSlab([]int{0, 1023}, []field.Element{9, 10})
	if want := []byte{2, 0, 0xff, 0x07}; !bytes.HasPrefix(good, want) || len(good) != len(want)+16 {
		t.Fatalf("two-slot slab header %x, want %x then two elements", good, want)
	}
	if m, n, ok := mwsvss.ParseSlab(good, 1); !ok || m != 2 || n != 1 {
		t.Fatalf("canonical slab: %d slots, width %d, ok %v", m, n, ok)
	}
	for _, r := range slabRefusals {
		if _, _, ok := mwsvss.ParseSlab(r.slab, 1); ok {
			t.Errorf("%s: %x parsed", r.name, r.slab)
		}
		if _, ok := mwsvss.MapSlab(r.slab, func(_ int, _ sim.ProcID, v field.Element) field.Element { return v }); ok {
			t.Errorf("%s: %x mapped", r.name, r.slab)
		}
	}
}
