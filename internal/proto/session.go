// Package proto defines the identifiers and wire encoding shared by all
// protocol layers: VSS session ids (the paper's "(c, i)" pairs, §2),
// MW-SVSS sub-instance keys, reliable-broadcast tags, and a binary codec
// used by the live runtime and for byte-level accounting.
package proto

import (
	"fmt"

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
	// value is the SHA-256 digest of the origin's proposal for the
	// session named by Tag.A (the proposal itself travels as a Value).
	// Session/MW/Step are zero — session identity lives in the service
	// scope, not the tag.
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

// tagEncodedSize is the fixed encoded size of a Tag:
// proto(1) + session(2+1+8+4) + mw(2+2+1) + step(1) + a(4).
const tagEncodedSize = 1 + 15 + 5 + 1 + 4

// TagSize is the encoded size of a Tag in bytes.
func TagSize() int { return tagEncodedSize }

// MarshalTo writes the tag to w.
func (t Tag) MarshalTo(w *Writer) {
	w.U8(t.Proto)
	w.Proc(t.Session.Dealer)
	w.U8(uint8(t.Session.Kind))
	w.U64(t.Session.Round)
	w.U32(t.Session.Index)
	w.Proc(t.MW.Dealer)
	w.Proc(t.MW.Moderator)
	w.U8(t.MW.Slot)
	w.U8(t.Step)
	w.U32(t.A)
}

// ReadTag reads a tag from r.
func ReadTag(r *Reader) Tag {
	var t Tag
	t.Proto = r.U8()
	t.Session.Dealer = r.Proc()
	t.Session.Kind = SessionKind(r.U8())
	t.Session.Round = r.U64()
	t.Session.Index = r.U32()
	t.MW.Dealer = r.Proc()
	t.MW.Moderator = r.Proc()
	t.MW.Slot = r.U8()
	t.Step = r.U8()
	t.A = r.U32()
	return t
}
