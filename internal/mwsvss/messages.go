// Package mwsvss implements Moderated Weak Shunning Verifiable Secret
// Sharing (MW-SVSS) — the share protocol S' and reconstruct protocol R'
// of paper §3.2, driven by the DMM protocol of §3.3.
//
// One Engine per process runs any number of MW-SVSS instances, each
// identified by a proto.MWID (parent VSS session plus dealer, moderator
// and slot). The dealer shares a secret s; the moderator holds its own
// input s' and certifies during the share phase that the dealt value is
// s'; reconstruction outputs either the bound value r or ⊥ (weak
// binding). When neither validity nor weak binding can be enforced, some
// nonfaulty process permanently shuns a newly detected faulty process via
// the DMM layer.
package mwsvss

import (
	"bytes"
	"encoding/binary"

	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Broadcast steps within proto.Tag for MW-SVSS.
const (
	// StepAck is the RB "ack" of share step 2.
	StepAck uint8 = 1
	// StepL is the RB broadcast of the set L_j (share step 4).
	StepL uint8 = 2
	// StepM is the moderator's RB broadcast of the set M (share step 6).
	StepM uint8 = 3
	// StepOK is the dealer's RB broadcast (share step 7).
	StepOK uint8 = 4
	// Step codes 5 and 6 carried the retired per-polynomial and
	// single-slot reveals; they are not to be reused.

	// StepRValSlab is the reveal of R' step 1, whatever the instance
	// width: one broadcast per (instance, revealer, pass) carrying the
	// revealer's share of every monitored polynomial f̂^slot_1 … f̂^slot_n
	// for every slot that started reconstructing in that pass (an explicit
	// ascending slot list followed by the rows, slot-major). A coin flip
	// opens one slot per attach target, so the whole flip reveals in a
	// single broadcast per (instance, revealer). Receivers keep only the
	// paper's entries: R' step 2 drops targets outside M̂ and origins
	// outside L̂_target, and the DMM holds an expectation only for those.
	StepRValSlab uint8 = 7
)

// Payload kinds.
const (
	KindDealVals = "mw/dealvals"
	KindDealPoly = "mw/dealpoly"
	KindDealMod  = "mw/dealmod"
	KindEcho     = "mw/echo"
	KindModValue = "mw/modvalue"
)

// DealVals is share step 1: the dealer sends process j the values
// f_1(j), ..., f_n(j).
type DealVals struct {
	MW   proto.MWID
	Vals []field.Element
}

var _ proto.Marshaler = DealVals{}
var _ dmm.Sessioned = DealVals{}

// Kind implements sim.Payload.
func (DealVals) Kind() string { return KindDealVals }

// Size implements sim.Payload.
func (m DealVals) Size() int { return m.MW.Size() + proto.ElemsSize(len(m.Vals)) }

// SessionRef implements dmm.Sessioned.
func (m DealVals) SessionRef() proto.MWID { return m.MW }

// MarshalTo implements proto.Marshaler.
func (m DealVals) MarshalTo(w *proto.Writer) {
	m.MW.MarshalTo(w)
	w.Elems(m.Vals)
}

// DealPoly is share step 1: the dealer sends process l the values
// f_l(1), ..., f_l(t+1), from which l reconstructs its monitored
// polynomial f_l.
type DealPoly struct {
	MW     proto.MWID
	Shares []field.Element
}

var _ proto.Marshaler = DealPoly{}
var _ dmm.Sessioned = DealPoly{}

// Kind implements sim.Payload.
func (DealPoly) Kind() string { return KindDealPoly }

// Size implements sim.Payload.
func (m DealPoly) Size() int { return m.MW.Size() + proto.ElemsSize(len(m.Shares)) }

// SessionRef implements dmm.Sessioned.
func (m DealPoly) SessionRef() proto.MWID { return m.MW }

// MarshalTo implements proto.Marshaler.
func (m DealPoly) MarshalTo(w *proto.Writer) {
	m.MW.MarshalTo(w)
	w.Elems(m.Shares)
}

// DealMod is share step 1: the dealer sends the moderator the values
// f(1), ..., f(t+1), from which the moderator reconstructs f.
type DealMod struct {
	MW     proto.MWID
	Shares []field.Element
}

var _ proto.Marshaler = DealMod{}
var _ dmm.Sessioned = DealMod{}

// Kind implements sim.Payload.
func (DealMod) Kind() string { return KindDealMod }

// Size implements sim.Payload.
func (m DealMod) Size() int { return m.MW.Size() + proto.ElemsSize(len(m.Shares)) }

// SessionRef implements dmm.Sessioned.
func (m DealMod) SessionRef() proto.MWID { return m.MW }

// MarshalTo implements proto.Marshaler.
func (m DealMod) MarshalTo(w *proto.Writer) {
	m.MW.MarshalTo(w)
	w.Elems(m.Shares)
}

// Echo is share step 2: process j sends process l the per-slot vector
// f̂^j_l = f^s_l(j) it received from the dealer (l's polynomial of each
// batch slot, evaluated at the sender). The vector is encoded as the
// raw concatenation of its elements — no count prefix — so a width-1
// echo is byte-identical to the classic single-value message; the
// receiver recovers the width from the payload length.
type Echo struct {
	MW   proto.MWID
	Vals []field.Element
}

var _ proto.Marshaler = Echo{}
var _ dmm.Sessioned = Echo{}

// Kind implements sim.Payload.
func (Echo) Kind() string { return KindEcho }

// Size implements sim.Payload.
func (m Echo) Size() int { return m.MW.Size() + 8*len(m.Vals) }

// SessionRef implements dmm.Sessioned.
func (m Echo) SessionRef() proto.MWID { return m.MW }

// MarshalTo implements proto.Marshaler.
func (m Echo) MarshalTo(w *proto.Writer) {
	m.MW.MarshalTo(w)
	for _, v := range m.Vals {
		w.Elem(v)
	}
}

// ModValue is share step 4: process j sends the moderator the vector
// f̂^s_j(0) per batch slot — its share of the information needed to
// compute each slot's secret. Encoded like Echo (raw concatenation,
// width from length, width 1 byte-identical to the classic message).
type ModValue struct {
	MW   proto.MWID
	Vals []field.Element
}

var _ proto.Marshaler = ModValue{}
var _ dmm.Sessioned = ModValue{}

// Kind implements sim.Payload.
func (ModValue) Kind() string { return KindModValue }

// Size implements sim.Payload.
func (m ModValue) Size() int { return m.MW.Size() + 8*len(m.Vals) }

// SessionRef implements dmm.Sessioned.
func (m ModValue) SessionRef() proto.MWID { return m.MW }

// MarshalTo implements proto.Marshaler.
func (m ModValue) MarshalTo(w *proto.Writer) {
	m.MW.MarshalTo(w)
	for _, v := range m.Vals {
		w.Elem(v)
	}
}

// RegisterCodec registers MW-SVSS message decoding.
func RegisterCodec(c *proto.Codec) {
	c.Register(KindDealVals, func(r *proto.Reader) (sim.Payload, error) {
		return DealVals{MW: proto.ReadMWID(r), Vals: r.Elems()}, r.Err()
	})
	c.Register(KindDealPoly, func(r *proto.Reader) (sim.Payload, error) {
		return DealPoly{MW: proto.ReadMWID(r), Shares: r.Elems()}, r.Err()
	})
	c.Register(KindDealMod, func(r *proto.Reader) (sim.Payload, error) {
		return DealMod{MW: proto.ReadMWID(r), Shares: r.Elems()}, r.Err()
	})
	c.Register(KindEcho, func(r *proto.Reader) (sim.Payload, error) {
		return Echo{MW: proto.ReadMWID(r), Vals: readElemTail(r)}, r.Err()
	})
	c.Register(KindModValue, func(r *proto.Reader) (sim.Payload, error) {
		return ModValue{MW: proto.ReadMWID(r), Vals: readElemTail(r)}, r.Err()
	})
}

// readElemTail decodes the unprefixed element vector that fills the
// rest of the payload (the Echo/ModValue batch encoding). A tail that
// is not a whole number of elements leaves its remainder unread, which
// the codec's Close rejects as trailing bytes.
func readElemTail(r *proto.Reader) []field.Element {
	es := make([]field.Element, r.Remaining()/8)
	for i := range es {
		es[i] = r.Elem()
	}
	return es
}

// EncodeSlab encodes a StepRValSlab value: the slot count and the slot
// list (ascending), each a uvarint, followed by the slots' share rows
// concatenated slot-major (len(slots) × n elements, 8 bytes each).
func EncodeSlab(slots []int, rows []field.Element) []byte {
	var w proto.Writer
	w.Uvarint(uint64(len(slots)))
	for _, s := range slots {
		w.Uvarint(uint64(s))
	}
	for _, e := range rows {
		w.Elem(e)
	}
	return w.Bytes()
}

// slab is a parsed StepRValSlab value, read in place.
type slab struct {
	b    []byte
	m, n int // slot count and row width
	list int // offset of the slot list
	rows int // offset of the rows
}

// slabUvarint reads a shortest-form uvarint at b[off:] and returns it
// with the offset after it, or next < 0 if there is none.
func slabUvarint(b []byte, off int) (v uint64, next int) {
	v, k := binary.Uvarint(b[off:])
	if k <= 0 || (k > 1 && b[off+k-1] == 0) {
		return 0, -1
	}
	return v, off + k
}

// parseSlab validates a StepRValSlab value for an n-process system (n = 0
// reads the row width off the payload length) in place. It enforces a
// slot count of 1..MaxBatchSlots, a strictly ascending slot list below
// MaxBatchSlots, shortest-form varints and a row span of exactly
// len(slots)·n canonical elements, so a Byzantine slab can neither
// inflate per-slot state nor smuggle rows for slots it does not name,
// and every accepted slab re-encodes to its input.
func parseSlab(b []byte, n int) (slab, bool) {
	m, off := slabUvarint(b, 0)
	if off < 0 || m < 1 || m > MaxBatchSlots {
		return slab{}, false
	}
	s := slab{b: b, m: int(m), list: off}
	prev := -1
	for range s.m {
		var v uint64
		if v, off = slabUvarint(b, off); off < 0 || v >= MaxBatchSlots || int(v) <= prev {
			return slab{}, false
		}
		prev = int(v)
	}
	s.rows = off
	rows := b[off:]
	if n == 0 {
		n = len(rows) / (s.m * 8)
	}
	if n < 1 || len(rows) != s.m*n*8 {
		return slab{}, false
	}
	for k := 0; k < len(rows); k += 8 {
		if binary.LittleEndian.Uint64(rows[k:]) >= field.Modulus {
			return slab{}, false
		}
	}
	s.n = n
	return s, true
}

// slots yields the index and slot of every slot a parsed slab names,
// in order.
func (s slab) slots(yield func(i, slot int) bool) {
	off := s.list
	for i := range s.m {
		v, k := binary.Uvarint(s.b[off:])
		off += k
		if !yield(i, int(v)) {
			return
		}
	}
}

// share returns share k of a parsed slab, slot-major.
func (s slab) share(k int) field.Element {
	return field.New(binary.LittleEndian.Uint64(s.b[s.rows+8*k:]))
}

// MapSlab rewrites every share of an encoded StepRValSlab value: f gets
// each entry's slot, polynomial index and honest value and returns the
// value to send. The row width is read off the slab's length, so a
// broadcast tamper needs no context. A value that is not a well-formed
// slab comes back unchanged with ok false.
func MapSlab(value []byte, f func(slot int, target sim.ProcID, v field.Element) field.Element) ([]byte, bool) {
	s, ok := parseSlab(value, 0)
	if !ok {
		return value, false
	}
	out := bytes.Clone(value)
	for i, slot := range s.slots {
		for l := range s.n {
			k := i*s.n + l
			v := f(slot, sim.ProcID(l+1), s.share(k))
			binary.LittleEndian.PutUint64(out[s.rows+8*k:], v.Uint64())
		}
	}
	return out, true
}
