package proto

import "svssba/internal/sim"

// Packed instance keys. The engines intern instance identities on every
// delivery (rb/wrb per (origin, Tag), mwsvss per MWID, svss per
// SessionID, dmm per MWID). In memory those structs carry an int-sized
// ProcID per process field plus alignment padding — an (origin, Tag)
// pair is 80 bytes — so every map probe hashes and compares them field
// by field. The packed forms below hold the same identity as a fixed
// array of uint64 words with no padding, which Go maps hash and compare
// as plain memory.
//
// Process ids are packed in the 16 bits the wire encoding gives them
// (Writer.Proc writes a u16), so packing is injective on exactly the
// identities that can arrive off the wire. An id outside 0..65535 cannot
// have crossed a wire: the Pack functions refuse it (ok = false) rather
// than alias it onto another instance, and callers drop what they cannot
// pack.

// PackedTag is the packed form of an (origin, Tag) pair.
type PackedTag [4]uint64

// PackedMWID is the packed form of an MWID.
type PackedMWID [3]uint64

// PackedSession is the packed form of a SessionID.
type PackedSession [2]uint64

// WireProc reports whether p is in the wire's 16-bit process-id domain.
func WireProc(p sim.ProcID) bool { return uint64(p) <= 0xFFFF }

// PackTag packs (origin, t). ok is false when a process id is outside
// the wire domain.
//
// Layout: w0 = Round; w1 = Index | A<<32; w2 = Proto | Kind<<8 |
// Step<<24 | Session.Dealer<<32 | MW.Dealer<<48; w3 = MW.Moderator |
// origin<<16.
func PackTag(origin sim.ProcID, t Tag) (k PackedTag, ok bool) {
	if !WireProc(origin) || !WireProc(t.Session.Dealer) || !WireProc(t.MW.Dealer) || !WireProc(t.MW.Moderator) {
		return k, false
	}
	k[0] = t.Session.Round
	k[1] = uint64(t.Session.Index) | uint64(t.A)<<32
	k[2] = uint64(t.Proto) | uint64(t.Session.Kind)<<8 | uint64(t.Step)<<24 |
		uint64(t.Session.Dealer)<<32 | uint64(t.MW.Dealer)<<48
	k[3] = uint64(t.MW.Moderator) | uint64(origin)<<16
	return k, true
}

// PackSession packs s. ok is false when the dealer is outside the wire
// domain.
//
// Layout: w0 = Round; w1 = Index | Kind<<32 | Dealer<<48.
func PackSession(s SessionID) (k PackedSession, ok bool) {
	if !WireProc(s.Dealer) {
		return k, false
	}
	k[0] = s.Round
	k[1] = uint64(s.Index) | uint64(s.Kind)<<32 | uint64(s.Dealer)<<48
	return k, true
}

// PackMWID packs id. ok is false when a process id is outside the wire
// domain.
//
// Layout: the PackSession words, then w2 = Key.Dealer | Key.Moderator<<16.
func PackMWID(id MWID) (k PackedMWID, ok bool) {
	s, ok := PackSession(id.Session)
	if !ok || !WireProc(id.Key.Dealer) || !WireProc(id.Key.Moderator) {
		return k, false
	}
	k[0], k[1] = s[0], s[1]
	k[2] = uint64(id.Key.Dealer) | uint64(id.Key.Moderator)<<16
	return k, true
}

// MWID unpacks k (the inverse of PackMWID).
func (k PackedMWID) MWID() MWID {
	return MWID{
		Session: SessionID{
			Dealer: sim.ProcID(k[1] >> 48),
			Kind:   SessionKind(k[1] >> 32),
			Round:  k[0],
			Index:  uint32(k[1]),
		},
		Key: MWKey{
			Dealer:    sim.ProcID(uint16(k[2])),
			Moderator: sim.ProcID(uint16(k[2] >> 16)),
		},
	}
}
