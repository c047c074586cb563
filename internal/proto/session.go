// Package proto defines the identifiers and wire encoding shared by all
// protocol layers: VSS session ids (the paper's "(c, i)" pairs, §2),
// MW-SVSS sub-instance keys, reliable-broadcast tags, and a binary codec
// used by the live runtime and for byte-level accounting.
package proto

import (
	"fmt"
	"math/bits"

	"svssba/internal/sim"
)

// SessionKind says which layer opened a VSS session. It is part of the
// session identity, so independent layers can never collide on (c, i).
type SessionKind uint8

// Session kinds.
const (
	// KindApp marks sessions opened directly through the public API or in
	// tests (the Round field is the dealer's local counter c).
	KindApp SessionKind = iota + 1
	// KindCoin marks SVSS sessions created by the common-coin protocol:
	// Round is the coin instance, Index the process the secret is
	// "attached to" (paper §5).
	KindCoin
	// KindMW marks sessions opened by standalone MW-SVSS usage (tests and
	// Example 1); within SVSS, MW sub-instances share the parent session.
	KindMW
)

// SessionID identifies one VSS invocation — the paper's session id (c, i)
// where i is the dealer. Kind/Round/Index together play the role of the
// counter c; Dealer is i.
type SessionID struct {
	Dealer sim.ProcID
	Kind   SessionKind
	Round  uint64
	Index  uint32
}

// String implements fmt.Stringer.
func (s SessionID) String() string {
	return fmt.Sprintf("(%d.%d.%d,d%d)", s.Kind, s.Round, s.Index, s.Dealer)
}

// IsZero reports whether s is the zero session.
func (s SessionID) IsZero() bool { return s == SessionID{} }

// MWKey identifies one MW-SVSS instance inside a parent session. Slot
// distinguishes the two values shared per ordered (dealer, moderator)
// pair in SVSS step 2: slot 0 shares f(moderator, dealer), slot 1 shares
// f(dealer, moderator).
type MWKey struct {
	Dealer    sim.ProcID
	Moderator sim.ProcID
	Slot      uint8
}

// String implements fmt.Stringer.
func (k MWKey) String() string {
	return fmt.Sprintf("[d%d,m%d,s%d]", k.Dealer, k.Moderator, k.Slot)
}

// IsZero reports whether k is the zero key.
func (k MWKey) IsZero() bool { return k == MWKey{} }

// MWID is the full identity of an MW-SVSS instance: the parent VSS
// session plus the instance key. Standalone MW-SVSS sessions use a
// KindMW parent whose dealer equals the MW dealer.
type MWID struct {
	Session SessionID
	Key     MWKey
}

// String implements fmt.Stringer.
func (id MWID) String() string { return id.Session.String() + id.Key.String() }

// Proto namespaces for broadcast tags and direct messages.
const (
	ProtoWRB    uint8 = 1
	ProtoRB     uint8 = 2
	ProtoMW     uint8 = 3
	ProtoSVSS   uint8 = 4
	ProtoCoin   uint8 = 5
	ProtoABA    uint8 = 6
	ProtoGather uint8 = 7
	// ProtoBundle carries a wire-v2 broadcast bundle: the RB value is a
	// bundle body (see EncodeBundle) holding many logical (tag, value)
	// broadcasts that share one RB instance. Tag.A is a per-origin
	// sequence number; Session/MW/Step are zero.
	ProtoBundle uint8 = 8
	// ProtoACS carries an ACS proposal broadcast (internal/acs): the RB
	// value is the origin's proposal for the session named by Tag.A,
	// echoed by digest (see DigestBody). Session/MW/Step are zero —
	// session identity lives in the service scope, not the tag.
	ProtoACS uint8 = 9
)

// Tag identifies one logical reliable-broadcast instance together with its
// origin process. Tags are comparable (usable as map keys) and fully
// describe which protocol step a broadcast belongs to, which is what lets
// the DMM layer route and filter accepted broadcasts.
type Tag struct {
	Proto   uint8
	Session SessionID
	MW      MWKey
	Step    uint8
	A       uint32 // generic parameter (target poly index, round, ...)
}

// String implements fmt.Stringer.
func (t Tag) String() string {
	return fmt.Sprintf("p%d%s%s.s%d.a%d", t.Proto, t.Session, t.MW, t.Step, t.A)
}

// Identifier encoding. An MWID is written as a presence mask (uvarint)
// followed by each nonzero field, in mask-bit order, as a uvarint:
//
//	uvarint mask   bit 0 Session.Dealer  bit 1 Session.Kind
//	               bit 2 Session.Round   bit 3 MW.Dealer
//	               bit 4 MW.Moderator    bit 5 Session.Index
//	               bit 6 MW.Slot
//	uvarint per set bit, ascending
//
// A Tag is its Proto byte, then the same encoding extended by two
// low bits for the fields only a tag has:
//
//	u8      Proto
//	uvarint mask   bit 0 Step  bit 1 A  bits 2..8 the MWID mask
//	uvarint per set bit, ascending
//
// An MWID mask is always one byte, and a tag's is one byte unless its
// Index or Slot is set (the fields that are zero in most tags sit on
// top). Small values take one byte, so an ACS proposal tag (Proto and
// A) costs 3–4 bytes and a full MW-SVSS tag about 12.
//
// The encoding is canonical and the decoder enforces it: an unknown
// mask bit, a set bit whose value is 0, an overlong varint or a value
// wider than its field (process ids are 16 bits, as in Writer.Proc) is
// ErrNonCanonical, so every identifier has exactly one encoding.
//
// Inside a Pack the MWID is delta-coded the same way: an item that
// opens with an MWID (an MWIDLed payload) writes the change mask of its
// MWID against the MWID of the pack's previous such item, then each
// changed field's new value (which may be 0), in mask-bit order. The
// first is coded against the zero MWID, which is the encoding above, so
// a payload outside a Pack keeps it. The decoder refuses a set bit
// whose value equals the base, as well as the refusals above.
//
// Bundle items are delta-coded: a bundle body names each item's tag by
// the fields that differ from the item before it (see EncodeBundle), so
// a run of items of one session writes that session once.
const (
	idSessDealer = 1 << iota
	idSessKind
	idSessRound
	idMWDealer
	idMWModerator
	idSessIndex
	idMWSlot

	mwidMask = idMWSlot<<1 - 1

	tagStep   = 1 << 0
	tagA      = 1 << 1
	tagIDBits = 2 // the MWID mask's shift inside a tag mask
	tagMask   = mwidMask<<tagIDBits | tagStep | tagA
)

// The widest value each identifier field holds, by field width.
// Process ids are 16 bits on the wire.
const (
	maxU8   = 0xFF
	maxProc = 0xFFFF
	maxU32  = 0xFFFFFFFF
	maxU64  = ^uint64(0)
)

// fieldSize is the encoded size of identifier field v: 0 when v is
// zero (its mask bit is clear), else its uvarint length.
func fieldSize(v uint64) int { return int((uint(bits.Len64(v)) + 6) / 7) }

// bit returns b if v is nonzero.
func bit(v, b uint64) uint64 {
	if v != 0 {
		return b
	}
	return 0
}

// fieldsSize returns the encoded size of id's fields, mask excluded.
func (id MWID) fieldsSize() int {
	return fieldSize(uint64(uint16(id.Session.Dealer))) + fieldSize(uint64(id.Session.Kind)) +
		fieldSize(id.Session.Round) + fieldSize(uint64(uint16(id.Key.Dealer))) +
		fieldSize(uint64(uint16(id.Key.Moderator))) + fieldSize(uint64(id.Session.Index)) +
		fieldSize(uint64(id.Key.Slot))
}

// mask returns id's presence mask.
func (id MWID) mask() uint64 {
	return bit(uint64(uint16(id.Session.Dealer)), idSessDealer) | bit(uint64(id.Session.Kind), idSessKind) |
		bit(id.Session.Round, idSessRound) | bit(uint64(uint16(id.Key.Dealer)), idMWDealer) |
		bit(uint64(uint16(id.Key.Moderator)), idMWModerator) | bit(uint64(id.Session.Index), idSessIndex) |
		bit(uint64(id.Key.Slot), idMWSlot)
}

// idFields is an MWID's fields in mask-bit order, process ids as their
// 16 wire bits.
type idFields [7]uint64

func (id *MWID) fields() idFields {
	return idFields{
		uint64(uint16(id.Session.Dealer)), uint64(id.Session.Kind), id.Session.Round,
		uint64(uint16(id.Key.Dealer)), uint64(uint16(id.Key.Moderator)),
		uint64(id.Session.Index), uint64(id.Key.Slot),
	}
}

// Size returns the encoded size of id against the zero MWID (its mask
// is always one byte).
func (id MWID) Size() int { return 1 + id.fieldsSize() }

// Size returns the encoded size of t. Only Index and Slot sit on mask
// bits 7 and 8, so they alone decide whether the mask takes a second
// byte.
func (t Tag) Size() int {
	n := 2 + MWID{Session: t.Session, Key: t.MW}.fieldsSize() + fieldSize(uint64(t.Step)) + fieldSize(uint64(t.A))
	if t.Session.Index != 0 || t.MW.Slot != 0 {
		n++
	}
	return n
}

// putField appends identifier field v to b unless it is zero.
func putField(b []byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	return putUvarint(b, v)
}

// putUvarint appends v to b as a uvarint.
func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// putFields appends id's nonzero fields in mask order.
func (id MWID) putFields(b []byte) []byte {
	b = putField(b, uint64(uint16(id.Session.Dealer)))
	b = putField(b, uint64(id.Session.Kind))
	b = putField(b, id.Session.Round)
	b = putField(b, uint64(uint16(id.Key.Dealer)))
	b = putField(b, uint64(uint16(id.Key.Moderator)))
	b = putField(b, uint64(id.Session.Index))
	return putField(b, uint64(id.Key.Slot))
}

// MarshalTo writes id to w, against the MWID of the previous MWIDLed
// item when w is encoding a Pack's items, else against the zero MWID.
func (id MWID) MarshalTo(w *Writer) {
	cur := id.fields()
	mask, _ := changes(w.mwBase[:], cur[:])
	b := append(w.buf, byte(mask))
	for m := mask; m != 0; m &= m - 1 {
		b = putUvarint(b, cur[bits.TrailingZeros64(m)])
	}
	w.buf = b
	if w.inPack {
		w.mwBase = cur
	}
}

// MarshalTo writes the tag to w.
func (t Tag) MarshalTo(w *Writer) {
	id := MWID{Session: t.Session, Key: t.MW}
	mask := id.mask()<<tagIDBits | bit(uint64(t.Step), tagStep) | bit(uint64(t.A), tagA)
	b := append(w.buf, t.Proto)
	if mask < 0x80 {
		b = append(b, byte(mask))
	} else {
		b = append(b, byte(mask)|0x80, byte(mask>>7))
	}
	b = putField(b, uint64(t.Step))
	b = putField(b, uint64(t.A))
	w.buf = id.putFields(b)
}

// idReader decodes identifier fields from b at i, with its own sticky
// error so the fields decode without touching the Reader.
type idReader struct {
	b   []byte
	i   int
	err error
}

// value reads a field value of at most max.
func (d *idReader) value(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	if d.i < len(d.b) {
		if c := d.b[d.i]; c < 0x80 { // one byte
			d.i++
			if uint64(c) > max {
				d.err = ErrNonCanonical
			}
			return uint64(c)
		}
	}
	r := Reader{buf: d.b, off: d.i}
	v := r.Uvarint()
	d.i, d.err = r.off, r.err
	if d.err == nil && v > max {
		d.err = ErrNonCanonical
	}
	return v
}

// mask reads a presence mask and checks it against allowed.
func (d *idReader) mask(allowed uint64) uint64 {
	r := Reader{buf: d.b, off: d.i}
	m := r.Uvarint()
	d.i, d.err = r.off, r.err
	if d.err == nil && m&^allowed != 0 {
		d.err = ErrNonCanonical
	}
	if d.err != nil {
		return 0
	}
	return m
}

// mwid reads the MWID fields mask names into s and k, which hold the
// base the fields are coded against (the zero MWID outside a Pack). It
// works in place: the structs are large enough that copying them shows
// in profiles.
func (d *idReader) mwid(mask uint64, s *SessionID, k *MWKey) {
	s.Dealer = sim.ProcID(d.change(mask, idSessDealer, uint64(s.Dealer), maxProc))
	s.Kind = SessionKind(d.change(mask, idSessKind, uint64(s.Kind), maxU8))
	s.Round = d.change(mask, idSessRound, s.Round, maxU64)
	k.Dealer = sim.ProcID(d.change(mask, idMWDealer, uint64(k.Dealer), maxProc))
	k.Moderator = sim.ProcID(d.change(mask, idMWModerator, uint64(k.Moderator), maxProc))
	s.Index = uint32(d.change(mask, idSessIndex, uint64(s.Index), maxU32))
	k.Slot = uint8(d.change(mask, idMWSlot, uint64(k.Slot), maxU8))
}

// done hands the decoder's position and error back to r.
func (d *idReader) done(r *Reader) bool {
	r.off = d.i
	r.err = d.err
	return d.err == nil
}

// ReadMWID reads an MWID from r: against the MWID the previous
// MWIDLed item read when r is decoding a Pack's items, else against the
// zero MWID.
func ReadMWID(r *Reader) (id MWID) {
	if r.err != nil {
		return MWID{}
	}
	id = r.mwBase
	d := idReader{b: r.buf, i: r.off}
	d.mwid(d.mask(mwidMask), &id.Session, &id.Key)
	if !d.done(r) {
		return MWID{}
	}
	if r.inPack {
		r.mwBase = id
	}
	return id
}

// ReadTag reads a tag from r.
func ReadTag(r *Reader) (t Tag) {
	t.Proto = r.U8()
	if r.err != nil {
		return Tag{}
	}
	d := idReader{b: r.buf, i: r.off}
	mask := d.mask(tagMask)
	t.Step = uint8(d.change(mask, tagStep, 0, maxU8))
	t.A = uint32(d.change(mask, tagA, 0, maxU32))
	d.mwid(mask>>tagIDBits, &t.Session, &t.MW)
	if !d.done(r) {
		return Tag{}
	}
	return t
}
