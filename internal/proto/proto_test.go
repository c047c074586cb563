package proto

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"svssba/internal/field"
	"svssba/internal/sim"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(1234)
	w.U32(567890)
	w.U64(987654321012345)
	w.Proc(13)
	w.Elem(field.New(42))
	w.Elems([]field.Element{field.New(1), field.New(2)})
	w.Procs([]sim.ProcID{3, 4, 5})
	w.VarBytes([]byte("hello"))

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U16(); got != 1234 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U32(); got != 567890 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 987654321012345 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Proc(); got != 13 {
		t.Errorf("Proc = %d", got)
	}
	if got := r.Elem(); got != field.New(42) {
		t.Errorf("Elem = %v", got)
	}
	if got := r.Elems(); len(got) != 2 || got[0] != field.New(1) || got[1] != field.New(2) {
		t.Errorf("Elems = %v", got)
	}
	if got := r.Procs(); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("Procs = %v", got)
	}
	if got := r.VarBytes(); string(got) != "hello" {
		t.Errorf("VarBytes = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Sticky error: further reads stay failed.
	_ = r.U8()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Error("error not sticky")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	var w Writer
	w.U16(5)
	w.U8(9)
	r := NewReader(w.Bytes())
	_ = r.U16()
	if err := r.Close(); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("err = %v, want ErrTrailingBytes", err)
	}
}

func TestReaderMaliciousLengthPrefix(t *testing.T) {
	// A huge Elems count with a tiny buffer must fail, not allocate.
	var w Writer
	w.U16(65535)
	r := NewReader(w.Bytes())
	if got := r.Elems(); got != nil {
		t.Errorf("Elems = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestTagRoundTrip(t *testing.T) {
	tag := Tag{
		Proto: ProtoMW,
		Session: SessionID{
			Dealer: 3, Kind: KindCoin, Round: 17, Index: 4,
		},
		MW:   MWKey{Dealer: 1, Moderator: 2, Slot: 1},
		Step: 5,
		A:    99,
	}
	var w Writer
	tag.MarshalTo(&w)
	// proto, mask (2 bytes: bit 8 is set), then one byte per field.
	if want := 1 + 2 + 9; w.Len() != want || tag.Size() != want {
		t.Errorf("encoded size = %d, Size() = %d, want %d", w.Len(), tag.Size(), want)
	}
	r := NewReader(w.Bytes())
	got := ReadTag(r)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got != tag {
		t.Errorf("round trip: got %+v, want %+v", got, tag)
	}
}

func TestTagQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(Tag{
				Proto: uint8(r.Intn(8)),
				Session: SessionID{
					Dealer: sim.ProcID(r.Intn(100)),
					Kind:   SessionKind(r.Intn(4)),
					Round:  r.Uint64(),
					Index:  r.Uint32(),
				},
				MW: MWKey{
					Dealer:    sim.ProcID(r.Intn(100)),
					Moderator: sim.ProcID(r.Intn(100)),
					Slot:      uint8(r.Intn(2)),
				},
				Step: uint8(r.Intn(10)),
				A:    r.Uint32(),
			})
		},
	}
	if err := quick.Check(func(tag Tag) bool {
		var w Writer
		tag.MarshalTo(&w)
		r := NewReader(w.Bytes())
		got := ReadTag(r)
		return r.Close() == nil && got == tag && w.Len() == tag.Size()
	}, cfg); err != nil {
		t.Error(err)
	}
}

// stubPayload exercises the codec registry. It borrows a real kind (a
// decoder is registered per wire code, so a fresh codec dispatches the
// code to whatever decoder the test registers).
type stubPayload struct {
	V uint64
}

// stubKind is the kind stubPayload borrows.
const stubKind = "aba/decide"

func (stubPayload) Kind() string { return stubKind }
func (stubPayload) Size() int    { return 8 }
func (p stubPayload) MarshalTo(w *Writer) {
	w.U64(p.V)
}

func decodeStub(r *Reader) (sim.Payload, error) {
	return stubPayload{V: r.U64()}, nil
}

func TestCodecRoundTrip(t *testing.T) {
	c := NewCodec()
	c.Register(stubKind, decodeStub)
	in := stubPayload{V: 77}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Errorf("round trip: got %v, want %v", out, in)
	}
}

func TestCodecUnknownKind(t *testing.T) {
	c := NewCodec()
	c.Register(stubKind, decodeStub)
	for _, b := range [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8},   // code 0 is never assigned
		{200, 1, 2, 3, 4, 5, 6, 7, 8}, // off the table
		{0xFF, 1, 2, 3, 4, 5, 6},      // retired: the batch frame's first byte
		{kindCodes[KindPack], 0},      // on the table, not registered here
	} {
		if _, err := c.Decode(b); err == nil {
			t.Errorf("unknown kind code %d decoded", b[0])
		}
	}
}

// TestCodecRegisterPanics pins Register's contract: a kind without a
// wire code, or one registered twice, is a programming error.
func TestCodecRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no wire code", func() { NewCodec().Register("test/stub", decodeStub) })
	mustPanic("duplicate", func() {
		c := NewCodec()
		c.Register(stubKind, decodeStub)
		c.Register(stubKind, decodeStub)
	})
}

// TestKindTable pins the wire table's invariants: codes are unique
// names, 0 and the retired 0xFF are never assigned, every code is below
// the Pack header's count bit, and a kind outside the
// table has no code.
func TestKindTable(t *testing.T) {
	seen := map[string]bool{}
	for code, name := range kindNames {
		if name == "" {
			continue
		}
		if code == 0 || code >= countFollows {
			t.Errorf("reserved code %d assigned to %q", code, name)
		}
		if seen[name] {
			t.Errorf("kind %q listed twice", name)
		}
		seen[name] = true
		if got, ok := KindCode(name); !ok || int(got) != code {
			t.Errorf("KindCode(%q) = %d, %v; want %d", name, got, ok, code)
		}
	}
	if _, ok := KindCode("test/stub"); ok {
		t.Error("unlisted kind has a code")
	}
}

type unmarshalable struct{}

func (unmarshalable) Kind() string { return "test/x" }
func (unmarshalable) Size() int    { return 0 }

func TestCodecRejectsNonMarshaler(t *testing.T) {
	c := NewCodec()
	if _, err := c.Encode(unmarshalable{}); err == nil {
		t.Error("non-marshaler encoded")
	}
}

func TestCodecTruncatedInput(t *testing.T) {
	c := NewCodec()
	c.Register(stubKind, decodeStub)
	b, err := c.Encode(stubPayload{V: 5})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := c.Decode(b[:cut]); err == nil {
			t.Errorf("truncated input of %d bytes decoded", cut)
		}
	}
}

// TestIdentRejectsNonCanonical pins the decoder's half of the canonical
// identifier encoding: every byte string below is something no encoder
// writes, so ReadTag or ReadMWID must fail with ErrNonCanonical.
func TestIdentRejectsNonCanonical(t *testing.T) {
	tags := map[string][]byte{
		"unknown mask bit":     {ProtoRB, 0x80, 0x04},
		"overlong mask":        {ProtoRB, 0x81, 0x00, 0x01},
		"set bit, zero value":  {ProtoRB, tagA, 0x00},
		"overlong value":       {ProtoRB, tagA, 0x85, 0x00},
		"step wider than u8":   {ProtoRB, tagStep, 0x80, 0x02},
		"A wider than u32":     {ProtoRB, tagA, 0x80, 0x80, 0x80, 0x80, 0x10},
		"dealer wider than 16": {ProtoRB, idSessDealer << tagIDBits, 0x80, 0x80, 0x04},
		"kind wider than u8":   {ProtoRB, idSessKind << tagIDBits, 0x80, 0x02},
	}
	for name, b := range tags {
		r := NewReader(b)
		if tag := ReadTag(r); !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("tag %s: read %+v, err %v", name, tag, r.Err())
		}
	}
	ids := map[string][]byte{
		"tag-only bit":        {mwidMask + 1, 0x01},
		"slot wider than u8":  {idMWSlot, 0x80, 0x02},
		"set bit, zero value": {idSessRound, 0x00},
	}
	for name, b := range ids {
		r := NewReader(b)
		if id := ReadMWID(r); !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("mwid %s: read %+v, err %v", name, id, r.Err())
		}
	}
}

// TestTagSizes pins the compact identifier sizes the wire accounting
// rests on.
func TestTagSizes(t *testing.T) {
	for _, c := range []struct {
		tag  Tag
		size int
	}{
		{Tag{}, 2},                             // Proto, empty mask
		{Tag{Proto: ProtoACS, A: 127}, 3},      // ACS proposal
		{Tag{Proto: ProtoACS, A: 128}, 4},      // two-byte A
		{Tag{Proto: ProtoRB, Step: 1}, 3},      // Proto, mask, Step
		{Tag{MW: MWKey{Slot: 1}}, 4},           // Slot is mask bit 8: two-byte mask
		{Tag{Session: SessionID{Index: 1}}, 4}, // Index is mask bit 7: two-byte mask
		{Tag{MW: MWKey{Moderator: 1}}, 3},      // bit 6: one-byte mask
	} {
		var w Writer
		c.tag.MarshalTo(&w)
		if w.Len() != c.size || c.tag.Size() != c.size {
			t.Errorf("%v: marshaled %d, Size() %d, want %d", c.tag, w.Len(), c.tag.Size(), c.size)
		}
	}
}
