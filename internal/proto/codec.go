package proto

import (
	"fmt"
	"sync"

	"svssba/internal/sim"
)

// Marshaler is implemented by payloads that can write themselves to a
// Writer. Every protocol message in this repository implements it; the
// analytic Size() of each payload must equal the marshaled length (codec
// tests enforce this).
type Marshaler interface {
	sim.Payload
	MarshalTo(w *Writer)
}

// DecodeFunc reconstructs a payload from a Reader.
type DecodeFunc func(r *Reader) (sim.Payload, error)

// Codec is a kind-dispatched binary codec for protocol payloads: the
// wire format of the node runtime. A single-payload frame is the
// payload's one-byte kind code (see kindNames) followed by its
// MarshalTo body:
//
//	u8 kind code ++ body
type Codec struct {
	decoders [256]DecodeFunc
}

// NewCodec returns an empty codec; protocol packages contribute their
// message types via their RegisterCodec functions.
func NewCodec() *Codec { return &Codec{} }

// Register adds the decoder for the given payload kind. Registering a
// kind the wire table does not list, or the same kind twice, is a
// programming error and panics.
func (c *Codec) Register(kind string, dec DecodeFunc) {
	code, ok := KindCode(kind)
	if !ok {
		panic(fmt.Sprintf("proto: kind %q has no wire code", kind))
	}
	if c.decoders[code] != nil {
		panic(fmt.Sprintf("proto: kind %q registered twice", kind))
	}
	c.decoders[code] = dec
}

// FrameSize is the encoded size of p as its own frame: the kind code
// plus the body. The node runtime counts it as a payload's logical byte
// cost, identical whether or not the payload traveled inside a batch.
func FrameSize(p sim.Payload) int { return 1 + p.Size() }

// Encode encodes p as a single-payload frame. The returned buffer is
// sized exactly (FrameSize), so encoding costs one allocation.
func (c *Codec) Encode(p sim.Payload) ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, FrameSize(p)), p)
}

// writerPool recycles Writer headers: MarshalTo is an interface call,
// so a stack Writer would escape and cost an allocation per message.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// readerPool recycles Reader headers for the decode hot path: DecodeFunc
// is an interface call, so a stack Reader escapes and would cost an
// allocation per decoded payload (the "proto.NewReader escapes" hot spot
// profiling surfaced). Decoded payloads never retain the Reader — only,
// at most, subslices of the input buffer — so recycling the header is
// safe.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// getReader returns a pooled Reader positioned at the start of b.
func getReader(b []byte) *Reader {
	r := readerPool.Get().(*Reader)
	r.Reset(b)
	return r
}

// putReader recycles r. The buffer reference is dropped so a pooled
// header never pins a frame.
func putReader(r *Reader) {
	r.Reset(nil)
	readerPool.Put(r)
}

// GetReader returns a pooled Reader positioned at the start of b — the
// exported recycling hook for decode helpers outside this package
// (mwsvss value decoders, svss G-set decoding). Pair every GetReader
// with a PutReader once decoding is done; the Reader must not be
// retained past that point.
func GetReader(b []byte) *Reader { return getReader(b) }

// PutReader recycles a Reader obtained from GetReader.
func PutReader(r *Reader) { putReader(r) }

// AppendEncode appends the encoding of p to dst and returns the
// extended buffer — the allocation-free variant of Encode for callers
// that own a reusable buffer (the node runtime's send path). dst may be
// nil.
func (c *Codec) AppendEncode(dst []byte, p sim.Payload) ([]byte, error) {
	m, ok := p.(Marshaler)
	if !ok {
		return nil, fmt.Errorf("proto: payload %q does not implement Marshaler", p.Kind())
	}
	code, ok := KindCode(p.Kind())
	if !ok {
		return nil, fmt.Errorf("proto: payload kind %q has no wire code", p.Kind())
	}
	w := writerPool.Get().(*Writer)
	w.buf = append(dst, code)
	m.MarshalTo(w)
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
	return out, nil
}

// Decode decodes a single-payload frame. Decoded payloads may alias b
// (see Reader.VarBytes); callers hand over the buffer and must not
// mutate it afterwards — the node runtime receives every frame buffer
// exclusively from its transport, which guarantees exactly that.
func (c *Codec) Decode(b []byte) (sim.Payload, error) {
	r := getReader(b)
	defer putReader(r)
	code := r.U8()
	if r.Err() != nil {
		return nil, fmt.Errorf("proto: decode kind: %w", r.Err())
	}
	dec := c.decoders[code]
	if dec == nil {
		return nil, fmt.Errorf("proto: no decoder for kind %s", kindName(code))
	}
	p, err := dec(r)
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("proto: decode %s: %w", kindName(code), err)
	}
	return p, nil
}
