package proto_test

import (
	"bytes"
	"testing"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// benchBatch is a representative outbox flush: a run of same-kind RB
// messages sharing one group header plus a trailing singleton — the
// shape the node runtime's coalescer hands to AppendEncodeBatch.
func benchBatch() []sim.Payload {
	ps := make([]sim.Payload, 0, 9)
	for i := 0; i < 8; i++ {
		ps = append(ps, rb.Msg{Origin: sim.ProcID(i%4 + 1), Tag: benchTag, Value: []byte("0123456789abcdef")})
	}
	ps = append(ps, rb.Msg{Origin: 1, Tag: benchTag, Value: []byte("tail")})
	return ps
}

// BenchmarkEncodeBatchReuse tracks the per-flush cost of the outbox hot
// path once the encode buffer is warm: AppendEncodeBatch into a reused
// buffer must not allocate (TestEncodeBatchReuseZeroAlloc enforces it).
func BenchmarkEncodeBatchReuse(b *testing.B) {
	c := core.NewCodec()
	ps := benchBatch()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := c.AppendEncodeBatch(buf[:0], ps)
		if err != nil {
			b.Fatal(err)
		}
		buf = enc
	}
}

// TestEncodeBatchReuseZeroAlloc pins the outbox flush contract: with a
// warm reused buffer, batch encoding is allocation-free per flush.
func TestEncodeBatchReuseZeroAlloc(t *testing.T) {
	c := core.NewCodec()
	ps := benchBatch()
	buf, err := c.EncodeBatch(ps) // warm the buffer to full size
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		enc, err := c.AppendEncodeBatch(buf[:0], ps)
		if err != nil {
			t.Fatal(err)
		}
		buf = enc
	})
	if allocs != 0 {
		t.Fatalf("AppendEncodeBatch with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkReaderPool tracks the header-recycling decode layer: acquire
// a pooled Reader, walk a frame (kind header, tag-sized fields, aliasing
// VarBytes), release it. Warm this is allocation-free — the layer the
// per-payload "NewReader escapes" cost used to live in
// (TestReaderPoolZeroAlloc enforces it).
func BenchmarkReaderPool(b *testing.B) {
	c := core.NewCodec()
	enc, err := c.Encode(benchMsg)
	if err != nil {
		b.Fatal(err)
	}
	body := enc[1:] // past the kind code
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := proto.GetReader(body)
		r.Proc()                 // Origin
		proto.ReadTag(r)         // Tag
		if r.VarBytes() == nil { // Value, aliasing enc
			b.Fatal("nil value")
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		proto.PutReader(r)
	}
}

// TestReaderPoolZeroAlloc pins the decode-side recycling contract: a
// warm GetReader/walk/PutReader cycle with zero-copy VarBytes performs
// no allocation.
func TestReaderPoolZeroAlloc(t *testing.T) {
	c := core.NewCodec()
	enc, err := c.Encode(benchMsg)
	if err != nil {
		t.Fatal(err)
	}
	body := enc[1:]
	allocs := testing.AllocsPerRun(100, func() {
		r := proto.GetReader(body)
		r.Proc()
		proto.ReadTag(r)
		if r.VarBytes() == nil {
			t.Fatal("nil value")
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		proto.PutReader(r)
	})
	if allocs != 0 {
		t.Fatalf("pooled reader walk: %v allocs/op, want 0", allocs)
	}
}

// TestVarBytesAliasing documents the zero-copy split: VarBytes aliases
// the input buffer (mutations show through), VarBytesCopy detaches.
func TestVarBytesAliasing(t *testing.T) {
	var w proto.Writer
	w.VarBytes([]byte("payload"))
	src := append([]byte(nil), w.Bytes()...)

	r := proto.NewReader(src)
	aliased := r.VarBytes()
	r = proto.NewReader(src)
	copied := r.VarBytesCopy()

	src[4] ^= 0xFF // mutate a byte inside the payload region
	if bytes.Equal(aliased, []byte("payload")) {
		t.Fatal("VarBytes returned a copy; expected it to alias the input")
	}
	if !bytes.Equal(copied, []byte("payload")) {
		t.Fatalf("VarBytesCopy affected by source mutation: %q", copied)
	}
}

// FuzzVarBytesCopyAliasing drives the copy-out helper with arbitrary
// buffers: whatever VarBytesCopy returns must stay intact when the
// source buffer is mutated afterwards — the property consumers that
// store payloads past frame delivery rely on.
func FuzzVarBytesCopyAliasing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 'a', 'b', 'c'})
	var w proto.Writer
	w.VarBytes(bytes.Repeat([]byte{0x5a}, 64))
	f.Add(append([]byte(nil), w.Bytes()...))
	f.Fuzz(func(t *testing.T, b []byte) {
		src := append([]byte(nil), b...)
		r := proto.NewReader(src)
		copied := r.VarBytesCopy()
		if r.Err() != nil {
			return
		}
		want := append([]byte(nil), copied...)
		for i := range src {
			src[i] = ^src[i]
		}
		if !bytes.Equal(copied, want) {
			t.Fatalf("copied payload changed when source was mutated:\n  before: %x\n  after:  %x", want, copied)
		}
	})
}

// TestEncodeOneExactAlloc pins Codec.Encode's contract: one allocation
// of exactly FrameSize bytes, for every shape of identifier (so no
// encoder grows the buffer past what Size promised).
func TestEncodeOneExactAlloc(t *testing.T) {
	c := fullCodec()
	acsTag := proto.Tag{Proto: proto.ProtoACS, A: 300}
	for _, p := range []sim.Payload{
		benchMsg,
		rb.Msg{Origin: 1, Tag: acsTag, Value: bytes.Repeat([]byte{1}, 32)},
		proto.Scoped{Scope: 1 << 20, Inner: rb.Msg{Origin: 2, Tag: acsTag}},
		proto.Pack{Items: benchBatch()},
	} {
		var enc []byte
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if enc, err = c.Encode(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 || len(enc) != proto.FrameSize(p) || cap(enc) != len(enc) {
			t.Errorf("%s: %v allocs, len %d cap %d, FrameSize %d", p.Kind(), allocs, len(enc), cap(enc), proto.FrameSize(p))
		}
	}
}
