package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"svssba/internal/field"
	"svssba/internal/sim"
)

// ErrShortBuffer is returned when decoding runs past the end of input.
var ErrShortBuffer = errors.New("proto: short buffer")

// ErrTrailingBytes is returned when decoding leaves unread input.
var ErrTrailingBytes = errors.New("proto: trailing bytes")

// ErrNonCanonical is returned for input that no encoder produces: an
// overlong or overflowing varint, a field value wider than its field, a
// presence bit whose field is zero, or an unknown presence bit. Every
// input the decoders accept re-encodes to exactly the same bytes.
var ErrNonCanonical = errors.New("proto: non-canonical encoding")

// Writer builds the wire encoding: fixed-width integers little-endian
// (process ids u16, field elements u64, element and process-id list
// counts u16), byte-string lengths, rounds and identifier fields as
// unsigned varints (LEB128, shortest form). The zero value is ready to
// use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer, keeping the allocated buffer so one
// Writer can encode a stream of messages with no per-message
// allocation (the encode hot path of the node runtime).
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends a uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Proc appends a process id as uint16.
func (w *Writer) Proc(p sim.ProcID) { w.U16(uint16(p)) }

// Elem appends a field element (8 bytes).
func (w *Writer) Elem(e field.Element) { w.U64(e.Uint64()) }

// Elems appends a length-prefixed slice of field elements.
func (w *Writer) Elems(es []field.Element) {
	w.U16(uint16(len(es)))
	for _, e := range es {
		w.Elem(e)
	}
}

// Procs appends a length-prefixed slice of process ids.
func (w *Writer) Procs(ps []sim.ProcID) {
	w.U16(uint16(len(ps)))
	for _, p := range ps {
		w.Proc(p)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if v < 0x80 {
		w.buf = append(w.buf, byte(v))
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// VarBytes appends a uvarint-length-prefixed byte slice.
func (w *Writer) VarBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// ElemsSize returns the encoded size of a field-element slice.
func ElemsSize(n int) int { return 2 + 8*n }

// ProcsSize returns the encoded size of a proc-id slice.
func ProcsSize(n int) int { return 2 + 2*n }

// VarBytesSize returns the encoded size of a byte slice of length n.
func VarBytesSize(n int) int { return UvarintSize(uint64(n)) + n }

// UvarintSize returns the encoded size of v as a uvarint.
func UvarintSize(v uint64) int { return int((uint(bits.Len64(v|1)) + 6) / 7) }

// Reader decodes a Writer encoding with a sticky error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close verifies the input was fully consumed.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShortBuffer
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Proc reads a process id.
func (r *Reader) Proc() sim.ProcID { return sim.ProcID(r.U16()) }

// Elem reads a field element. Only the canonical representative
// (below field.Modulus) is accepted.
func (r *Reader) Elem() field.Element {
	v := r.U64()
	if v >= field.Modulus {
		r.fail(ErrNonCanonical)
		return 0
	}
	return field.New(v)
}

// Uvarint reads an unsigned varint in its shortest form; an overlong
// or overflowing encoding is ErrNonCanonical.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	b := r.buf[r.off:]
	if len(b) > 0 && b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	v, n := binary.Uvarint(b)
	if n == 0 {
		r.err = ErrShortBuffer
		return 0
	}
	if n < 0 || b[n-1] == 0 {
		r.err = ErrNonCanonical
		return 0
	}
	r.off += n
	return v
}

// fail sets the sticky error unless one is already set.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Elems reads a length-prefixed field-element slice.
func (r *Reader) Elems() []field.Element {
	n := int(r.U16())
	if r.err != nil || n > r.Remaining()/8 {
		if r.err == nil {
			r.err = ErrShortBuffer
		}
		return nil
	}
	es := make([]field.Element, n)
	for i := range es {
		es[i] = r.Elem()
	}
	return es
}

// Procs reads a length-prefixed proc-id slice.
func (r *Reader) Procs() []sim.ProcID {
	n := int(r.U16())
	if r.err != nil || n > r.Remaining()/2 {
		if r.err == nil {
			r.err = ErrShortBuffer
		}
		return nil
	}
	ps := make([]sim.ProcID, n)
	for i := range ps {
		ps[i] = r.Proc()
	}
	return ps
}

// VarBytes reads a length-prefixed byte slice. The returned slice
// ALIASES the reader's buffer — zero-copy on purpose: the decode hot
// path (echo storms of rb/wrb values, bundle items) would otherwise
// copy every payload once per delivery. The aliasing contract:
//
//   - Inbound frame buffers are immutable once handed to a receiver
//     (see transport.Frame), so an aliased value is stable for as long
//     as any reference to it lives — the GC keeps the frame alive.
//   - A consumer that STORES the value past its own delivery must
//     either copy it (append([]byte(nil), v...), what the rb/wrb accept
//     paths and intern.ValCounts already do) or take it through
//     VarBytesCopy at decode time.
func (r *Reader) VarBytes() []byte {
	n := r.Uvarint()
	if r.err != nil || n > uint64(r.Remaining()) {
		r.fail(ErrShortBuffer)
		return nil
	}
	return r.take(int(n))
}

// VarBytesCopy reads a length-prefixed byte slice into a fresh buffer —
// the explicit copy-out for consumers that retain the value beyond the
// life of the reader's buffer. Ownership of the returned slice is the
// caller's alone; mutating the source buffer after decode cannot affect
// it.
func (r *Reader) VarBytesCopy() []byte {
	b := r.VarBytes()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Reset rewinds the reader onto a new buffer, clearing the sticky
// error — the recycling hook behind readerPool, mirroring
// Writer.Reset.
func (r *Reader) Reset(b []byte) {
	r.buf = b
	r.off = 0
	r.err = nil
}
