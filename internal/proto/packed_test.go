package proto_test

import (
	"bytes"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// readOriginTag decodes an (origin, Tag) pair as rb/wrb messages carry
// it: a u16 origin followed by the tag.
func readOriginTag(b []byte) (sim.ProcID, proto.Tag, bool) {
	r := proto.NewReader(b)
	origin := r.Proc()
	tag := proto.ReadTag(r)
	return origin, tag, r.Err() == nil
}

// readMWID decodes an MWID as mwsvss messages carry it.
func readMWID(b []byte) (proto.MWID, bool) {
	r := proto.NewReader(b)
	id := proto.ReadMWID(r)
	return id, r.Err() == nil
}

// wideMWID sets every identifier field to its widest value, so each
// one encodes as a multi-byte varint.
var wideMWID = proto.MWID{
	Session: proto.SessionID{Dealer: 0xFFFF, Kind: 0xFF, Round: ^uint64(0), Index: ^uint32(0)},
	Key:     proto.MWKey{Dealer: 0xFFFF, Moderator: 0xFFFF},
}

func originTagBytes(origin sim.ProcID, t proto.Tag) []byte {
	var w proto.Writer
	w.Proc(origin)
	t.MarshalTo(&w)
	return w.Bytes()
}

// FuzzPackTag: for any two (origin, Tag) pairs decoded from wire bytes,
// packing succeeds and the packed keys are equal exactly when the pairs
// are — the rb/wrb instance tables may key on the packed form without
// merging two instances or splitting one.
func FuzzPackTag(f *testing.F) {
	base := proto.Tag{
		Proto:   proto.ProtoMW,
		Session: wideMWID.Session,
		MW:      wideMWID.Key,
		Step:    0xFF,
		A:       ^uint32(0),
	}
	a := originTagBytes(0xFFFF, base)
	f.Add(a, a)
	for i := range a {
		b := bytes.Clone(a)
		b[i] ^= 0x01
		f.Add(a, b)
	}
	f.Add(bytes.Repeat([]byte{0xff}, len(a)), bytes.Repeat([]byte{0x00}, len(a)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		oa, ta, okA := readOriginTag(a)
		ob, tb, okB := readOriginTag(b)
		if !okA || !okB {
			return
		}
		ka, packA := proto.PackTag(oa, ta)
		kb, packB := proto.PackTag(ob, tb)
		if !packA || !packB {
			t.Fatalf("wire-decoded pair refused: (%d, %v) %v, (%d, %v) %v", oa, ta, packA, ob, tb, packB)
		}
		if same := oa == ob && ta == tb; (ka == kb) != same {
			t.Fatalf("keys equal %v but pairs equal %v:\n  a: %d %+v\n  b: %d %+v", ka == kb, same, oa, ta, ob, tb)
		}
	})
}

// FuzzPackMWID: the same injectivity for MWIDs and their SessionIDs
// decoded from wire bytes, plus the MWID round trip DMM relies on.
func FuzzPackMWID(f *testing.F) {
	var w proto.Writer
	wideMWID.MarshalTo(&w)
	a := w.Bytes()
	f.Add(a, a)
	for i := range a {
		b := bytes.Clone(a)
		b[i] ^= 0x80
		f.Add(a, b)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ia, okA := readMWID(a)
		ib, okB := readMWID(b)
		if !okA || !okB {
			return
		}
		ka, packA := proto.PackMWID(ia)
		kb, packB := proto.PackMWID(ib)
		sa, sPackA := proto.PackSession(ia.Session)
		sb, sPackB := proto.PackSession(ib.Session)
		if !packA || !packB || !sPackA || !sPackB {
			t.Fatalf("wire-decoded id refused: %v, %v", ia, ib)
		}
		if (ka == kb) != (ia == ib) {
			t.Fatalf("MWID keys equal %v but ids equal %v: %+v vs %+v", ka == kb, ia == ib, ia, ib)
		}
		if (sa == sb) != (ia.Session == ib.Session) {
			t.Fatalf("session keys equal %v but sessions equal %v: %+v vs %+v", sa == sb, ia.Session == ib.Session, ia.Session, ib.Session)
		}
		if got := ka.MWID(); got != ia {
			t.Fatalf("unpack %+v, want %+v", got, ia)
		}
	})
}

// TestPackRefusesNonWireProcs: a process id outside the wire's 16 bits
// in any position is refused, never folded onto an in-range id.
func TestPackRefusesNonWireProcs(t *testing.T) {
	for _, p := range []sim.ProcID{-1, 1 << 16, 1<<16 + 2} {
		tag := proto.Tag{Proto: proto.ProtoRB, Session: proto.SessionID{Dealer: 1}, MW: proto.MWKey{Dealer: 1, Moderator: 1}}
		bad := []struct {
			origin sim.ProcID
			tag    proto.Tag
		}{{p, tag}, {1, tag}, {1, tag}, {1, tag}}
		bad[1].tag.Session.Dealer = p
		bad[2].tag.MW.Dealer = p
		bad[3].tag.MW.Moderator = p
		for i, c := range bad {
			if _, ok := proto.PackTag(c.origin, c.tag); ok {
				t.Errorf("PackTag accepted id %d in position %d", p, i)
			}
			id := proto.MWID{Session: c.tag.Session, Key: c.tag.MW}
			if _, ok := proto.PackMWID(id); ok != (i == 0) {
				t.Errorf("PackMWID(%v) ok = %v", id, ok)
			}
		}
		if _, ok := proto.PackSession(proto.SessionID{Dealer: p}); ok {
			t.Errorf("PackSession accepted dealer %d", p)
		}
	}
}
