package proto_test

import (
	"bytes"
	"slices"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// FuzzProcSetDecode feeds arbitrary bytes to the process-set decoder,
// the broadcast value of every L, M, attach, G and gather set.
// DecodeProcSet must never panic; every set it accepts must be
// ascending, pass ValidProcs and re-encode to its input; and the same
// bitmap with a trailing zero byte must be refused.
func FuzzProcSetDecode(f *testing.F) {
	f.Add(proto.EncodeProcSet([]sim.ProcID{1, 3, 4, 7}), uint8(7))
	f.Add(proto.EncodeProcSet([]sim.ProcID{8, 2, 13}), uint8(13))
	f.Add([]byte{0}, uint8(4))                // the empty set
	f.Add([]byte{0x80, 0x00}, uint8(4))       // the empty set with a trailing zero byte
	f.Add([]byte{0x8f, 0x00}, uint8(4))       // a trailing zero byte
	f.Add([]byte{0x10}, uint8(4))             // an id above n
	f.Add([]byte{0x81}, uint8(4))             // a bitmap past the input
	f.Add(idAbove16Bits(), uint8(255))        // an id above 0xFFFF
	f.Add([]byte{0x8f, 0x81, 0x01}, uint8(4)) // ids above n in later bytes
	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		ps, ok := proto.DecodeProcSet(b, int(n))
		if !ok {
			return
		}
		if !proto.ValidProcs(ps, int(n)) || !slices.IsSorted(ps) {
			t.Fatalf("accepted set %v is not ascending or fails ValidProcs for n=%d", ps, n)
		}
		if enc := proto.EncodeProcSet(ps); !bytes.Equal(enc, b) {
			t.Fatalf("set %v accepted from a non-canonical encoding:\n  in:  %x\n  out: %x", ps, b, enc)
		}
		padded := append(bytes.Clone(b), 0)
		padded[len(b)-1] |= 0x80
		if got, ok := proto.DecodeProcSet(padded, int(n)); ok {
			t.Fatalf("set %v accepted with a trailing zero byte %x", got, padded)
		}
	})
}

// idAbove16Bits is the bitmap of id 0x10000 alone.
func idAbove16Bits() []byte {
	b := bytes.Repeat([]byte{0x80}, 0x10000/7+1)
	b[len(b)-1] = 1 << (0xFFFF % 7)
	return b
}

// TestProcSetBitmap pins the bitmap encoding of process sets: one byte
// per seven ids, the order and duplicates of the input do not matter,
// and the decoder refuses a trailing zero byte, a bitmap past the input
// and an id above 0xFFFF while id 0xFFFF itself decodes.
func TestProcSetBitmap(t *testing.T) {
	for _, c := range []struct {
		ps   []sim.ProcID
		want []byte
	}{
		{nil, []byte{0}},
		{[]sim.ProcID{1, 2}, []byte{0x03}},
		{[]sim.ProcID{2, 1}, []byte{0x03}},
		{[]sim.ProcID{2, 1, 2}, []byte{0x03}},
		{[]sim.ProcID{7, 1}, []byte{0x41}},
		{[]sim.ProcID{8}, []byte{0x80, 0x01}},
		{[]sim.ProcID{1, 15}, []byte{0x81, 0x80, 0x01}},
	} {
		if got := proto.EncodeProcSet(c.ps); !bytes.Equal(got, c.want) {
			t.Errorf("set %v encodes to %x, want %x", c.ps, got, c.want)
		}
	}
	top := bytes.Repeat([]byte{0x80}, 0xFFFF/7+1)
	top[len(top)-1] = 1 << ((0xFFFF - 1) % 7)
	r := proto.NewReader(top)
	if ps := r.Procs(); r.Close() != nil || len(ps) != 1 || ps[0] != 0xFFFF {
		t.Errorf("id 0xFFFF read as %v (err %v)", ps, r.Close())
	}
	for name, b := range map[string][]byte{
		"trailing zero byte":   {0x83, 0x00},
		"past the input":       {0x83},
		"empty input":          {},
		"id above 0xFFFF":      idAbove16Bits(),
		"a byte past 0xFFFF's": append(bytes.Repeat([]byte{0x80}, 0xFFFF/7+1), 1),
	} {
		r := proto.NewReader(b)
		if ps := r.Procs(); r.Err() == nil {
			t.Errorf("%s: read %v", name, ps)
		}
	}
}
