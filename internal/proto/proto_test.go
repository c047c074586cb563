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
	if w.Len() != TagSize() {
		t.Errorf("encoded size = %d, want %d", w.Len(), TagSize())
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
		return r.Close() == nil && got == tag && w.Len() == TagSize()
	}, cfg); err != nil {
		t.Error(err)
	}
}

// stubPayload exercises the codec registry.
type stubPayload struct {
	V uint64
}

func (stubPayload) Kind() string { return "test/stub" }
func (stubPayload) Size() int    { return 8 }
func (p stubPayload) MarshalTo(w *Writer) {
	w.U64(p.V)
}

func decodeStub(r *Reader) (sim.Payload, error) {
	return stubPayload{V: r.U64()}, nil
}

func TestCodecRoundTrip(t *testing.T) {
	c := NewCodec()
	c.Register("test/stub", decodeStub)
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
	if _, err := c.Decode([]byte{4, 0, 'n', 'o', 'p', 'e'}); err == nil {
		t.Error("unknown kind decoded")
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
	c.Register("test/stub", decodeStub)
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

func TestValueRoundTrip(t *testing.T) {
	c := NewCodec()
	RegisterValueCodec(c)
	for _, in := range []Value{{Origin: 3, Value: []byte("proposal")}, {Origin: 1}} {
		b, err := c.Encode(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if want := 2 + len(KindValue) + in.Size(); len(b) != want {
			t.Errorf("encoded %d bytes, Size() promises %d", len(b), want)
		}
		out, err := c.Decode(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got := out.(Value)
		if got.Origin != in.Origin || string(got.Value) != string(in.Value) {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := c.Decode(b[:cut]); err == nil {
				t.Errorf("truncated input of %d bytes decoded", cut)
			}
		}
	}
}
