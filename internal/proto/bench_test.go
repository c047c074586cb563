package proto_test

import (
	"testing"

	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// benchTag is a representative fully-populated tag.
var benchTag = proto.Tag{
	Proto:   proto.ProtoMW,
	Session: proto.SessionID{Dealer: 2, Kind: proto.KindCoin, Round: 7, Index: 3},
	MW:      proto.MWKey{Dealer: 2, Moderator: 1},
	Step:    mwsvss.StepRValSlab,
	A:       9,
}

// BenchmarkTagCodec tracks the identifier layer on every
// reliable-broadcast message: Size (which the simulator calls on every
// send), MarshalTo into a warm writer, and ReadTag.
// TestTagCodecZeroAlloc pins all three at zero allocations.
func BenchmarkTagCodec(b *testing.B) {
	var w proto.Writer
	benchTag.MarshalTo(&w)
	enc := append([]byte(nil), w.Bytes()...)
	b.Run("Size", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			n += benchTag.Size()
		}
		if n != b.N*len(enc) {
			b.Fatal("Size disagrees with the encoding")
		}
	})
	b.Run("MarshalTo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			benchTag.MarshalTo(&w)
		}
	})
	b.Run("ReadTag", func(b *testing.B) {
		b.ReportAllocs()
		var r proto.Reader
		for i := 0; i < b.N; i++ {
			r.Reset(enc)
			if proto.ReadTag(&r) != benchTag {
				b.Fatal("corrupt round trip")
			}
		}
	})
}

// TestTagCodecZeroAlloc: sizing, encoding into a warm writer and
// decoding a tag allocate nothing.
func TestTagCodecZeroAlloc(t *testing.T) {
	var w proto.Writer
	benchTag.MarshalTo(&w)
	enc := append([]byte(nil), w.Bytes()...)
	var r proto.Reader
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		benchTag.MarshalTo(&w)
		r.Reset(enc)
		if proto.ReadTag(&r) != benchTag || benchTag.Size() != len(enc) {
			t.Fatal("corrupt round trip")
		}
	})
	if allocs != 0 {
		t.Fatalf("tag Size/MarshalTo/ReadTag: %v allocs/op, want 0", allocs)
	}
}

// benchMsg is a representative wire message: an RB broadcast carrying a
// small value, the dominant traffic shape of a live run. It is held as
// a sim.Payload so the benchmarks measure the codec, not per-iteration
// interface boxing (protocol code hands the codec interface values
// already).
var benchMsg sim.Payload = rb.Msg{
	Origin: 2,
	Tag:    benchTag,
	Value:  []byte("0123456789abcdef"),
}

// BenchmarkEncodeMessage tracks Codec.Encode (one exact-size allocation
// per message).
func BenchmarkEncodeMessage(b *testing.B) {
	c := core.NewCodec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := c.Encode(benchMsg)
		if err != nil {
			b.Fatal(err)
		}
		if len(enc) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkAppendEncodeMessage tracks the buffer-reusing fast path the
// node runtime uses; steady-state it must not allocate.
func BenchmarkAppendEncodeMessage(b *testing.B) {
	c := core.NewCodec()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := c.AppendEncode(buf[:0], benchMsg)
		if err != nil {
			b.Fatal(err)
		}
		buf = enc
	}
}

// BenchmarkEncodeDecodeMessage tracks the full wire round trip — what
// every delivered message costs the live runtime on top of protocol
// logic.
func BenchmarkEncodeDecodeMessage(b *testing.B) {
	c := core.NewCodec()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := c.AppendEncode(buf[:0], benchMsg)
		if err != nil {
			b.Fatal(err)
		}
		buf = enc
		p, err := c.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		if p.Kind() != benchMsg.Kind() {
			b.Fatal("kind mismatch")
		}
	}
}

// BenchmarkEncodeLargeMessage exercises the size-proportional path with
// a deal carrying 2(t+1) polynomial points at n=16.
func BenchmarkEncodeLargeMessage(b *testing.B) {
	pts := make([]field.Element, 12)
	for i := range pts {
		pts[i] = field.New(uint64(i + 1))
	}
	var deal sim.Payload = svss.Deal{Session: benchTag.Session, RowPts: pts, ColPts: pts}
	c := core.NewCodec()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := c.AppendEncode(buf[:0], deal)
		if err != nil {
			b.Fatal(err)
		}
		buf = enc
	}
}
