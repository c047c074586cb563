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
	"sort"

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
	// StepRVal is the reconstruct-phase value broadcast (R' step 1); the
	// tag's A field carries the polynomial index l.
	StepRVal uint8 = 5
	// StepRValVec is the batched reveal of R' step 1 for multi-slot
	// sessions: one broadcast per slot carrying the revealer's share of
	// EVERY monitored polynomial f̂^slot_1 … f̂^slot_n (the tag's A field
	// is the slot). Only width-k>1 instances emit it — classic width-1
	// sessions keep the per-l StepRVal, so the v1 wire image is
	// untouched. Receivers discard entries whose polynomial index never
	// qualifies, exactly as they would discard the equivalent per-l
	// broadcasts.
	StepRValVec uint8 = 6
	// StepRValSlab is the multi-slot form of StepRValVec: one broadcast
	// carrying the share rows of every slot that started reconstructing
	// in one pass (an explicit ascending slot list followed by the rows,
	// slot-major). A coin flip opens one slot per attach target, so the
	// whole flip reveals in a single broadcast per (instance, revealer)
	// instead of one per slot. Like StepRValVec it is only ever emitted
	// by width-k>1 instances, so v1 wire parity holds.
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

// EncodeProcs canonically encodes a process set for RB value equality
// (sorted ascending).
func EncodeProcs(ps []sim.ProcID) []byte {
	sorted := make([]sim.ProcID, len(ps))
	copy(sorted, ps)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var w proto.Writer
	w.Procs(sorted)
	return w.Bytes()
}

// DecodeProcs decodes a process set, rejecting ids outside 1..n and
// duplicates (proto.DecodeProcSet is the shared rule).
func DecodeProcs(b []byte, n int) ([]sim.ProcID, bool) {
	return proto.DecodeProcSet(b, n)
}

// EncodeElem encodes a single field element broadcast value.
func EncodeElem(e field.Element) []byte {
	var w proto.Writer
	w.Elem(e)
	return w.Bytes()
}

// DecodeElem decodes a single field element broadcast value.
func DecodeElem(b []byte) (field.Element, bool) {
	r := proto.GetReader(b)
	defer proto.PutReader(r)
	e := r.Elem()
	if r.Close() != nil {
		return field.Zero, false
	}
	return e, true
}

// EncodeElems encodes a field element vector broadcast value (raw
// concatenation, like the element tails of Echo and ModValue).
func EncodeElems(es []field.Element) []byte {
	var w proto.Writer
	for _, e := range es {
		w.Elem(e)
	}
	return w.Bytes()
}

// DecodeElems decodes a field element vector broadcast value; the
// length is implied by the payload size.
func DecodeElems(b []byte) ([]field.Element, bool) {
	if len(b)%8 != 0 {
		return nil, false
	}
	r := proto.GetReader(b)
	defer proto.PutReader(r)
	es := readElemTail(r)
	if r.Close() != nil {
		return nil, false
	}
	return es, true
}

// EncodeSlab encodes a StepRValSlab value: the slot list (ascending)
// followed by the slots' share rows concatenated slot-major (len(slots)
// × n elements).
func EncodeSlab(slots []int, rows []field.Element) []byte {
	var w proto.Writer
	w.U32(uint32(len(slots)))
	for _, s := range slots {
		w.U32(uint32(s))
	}
	for _, e := range rows {
		w.Elem(e)
	}
	return w.Bytes()
}

// DecodeSlab decodes a StepRValSlab value for an n-process system. It
// enforces a strictly ascending slot list below MaxBatchSlots and a row
// span of exactly len(slots)·n elements, so a Byzantine slab can neither
// inflate per-slot state nor smuggle rows for slots it does not name.
func DecodeSlab(b []byte, n int) ([]int, []field.Element, bool) {
	r := proto.GetReader(b)
	defer proto.PutReader(r)
	m := int(r.U32())
	if r.Err() != nil || m < 1 || m > MaxBatchSlots {
		return nil, nil, false
	}
	slots := make([]int, m)
	for i := range slots {
		s := int(r.U32())
		if r.Err() != nil || s >= MaxBatchSlots || (i > 0 && s <= slots[i-1]) {
			return nil, nil, false
		}
		slots[i] = s
	}
	if r.Remaining() != m*n*8 {
		return nil, nil, false
	}
	rows := readElemTail(r)
	if r.Close() != nil {
		return nil, nil, false
	}
	return slots, rows, true
}
