package proto_test

import (
	"bytes"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// mwSession is the parent session of the MW instances below.
var mwSession = proto.SessionID{Dealer: 3, Kind: proto.KindCoin, Round: 300, Index: 5}

// mwID returns the MW instance (dealer, moderator) of mwSession.
func mwID(dealer, mod sim.ProcID) proto.MWID {
	return proto.MWID{Session: mwSession, Key: proto.MWKey{Dealer: dealer, Moderator: mod}}
}

// mwRunPack is shaped like a core burst pack to one peer during a coin
// round's sharing: a run of echoes of every (dealer, moderator)
// instance, broken by a deal, an SVSS deal, an RB echo and votes, so
// MWIDLed items sit in several groups with other kinds between them.
// It holds items items.
func mwRunPack(items int) proto.Pack {
	es := []field.Element{field.New(11), field.New(field.Modulus - 1)}
	var ps []sim.Payload
	for i := 0; len(ps) < items; i++ {
		d, m := sim.ProcID(i%7+1), sim.ProcID(i/7%7+1)
		switch i % 16 {
		case 5:
			ps = append(ps, mwsvss.DealVals{MW: mwID(d, m), Vals: es})
		case 9:
			ps = append(ps, svss.Deal{Session: mwSession, RowPts: es, ColPts: es[:1]})
		case 12:
			ps = append(ps, rb.Msg{Origin: 2, Tag: proto.Tag{Proto: proto.ProtoBundle, A: uint32(i)}, Value: []byte("digest")})
		case 14:
			ps = append(ps, aba.Vote{Step: 1, Round: uint64(i), Value: 1})
		default:
			ps = append(ps, mwsvss.Echo{MW: mwID(d, m), Vals: es})
		}
	}
	return proto.Pack{Items: ps}
}

// TestPackSizeMixedGroups: for packs that mix MWIDLed and other kinds
// across several groups, Size() is the encoded length, the pack
// round-trips item for item, and the MWID delta makes it smaller than
// the same items coded against the zero MWID.
func TestPackSizeMixedGroups(t *testing.T) {
	c := fullCodec()
	for _, items := range []int{1, 2, 16, 64, 200} {
		pk := mwRunPack(items)
		enc, err := c.Encode(pk)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != proto.FrameSize(pk) {
			t.Errorf("%d items: encoded %d bytes, FrameSize %d", items, len(enc), proto.FrameSize(pk))
		}
		p, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("%d items: %v", items, err)
		}
		got := p.(proto.Pack).Items
		if len(got) != items {
			t.Fatalf("%d items decoded as %d", items, len(got))
		}
		full := 0
		for i, it := range got {
			a, _ := c.Encode(it)
			b, _ := c.Encode(pk.Items[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("%d items: item %d (%s) changed across the round trip", items, i, it.Kind())
			}
			n := it.Size()
			full += proto.UvarintSize(uint64(n)) + n
		}
		if items >= 16 && pk.Size() >= full {
			t.Errorf("%d items: pack of %d bytes, items alone %d: the MWID delta saved nothing", items, pk.Size(), full)
		}
	}
}

// TestPackSizeZeroAlloc: the simulator sizes every pack it sends, so
// Size() must compute the MWID deltas without encoding or allocating.
func TestPackSizeZeroAlloc(t *testing.T) {
	pk := mwRunPack(64)
	if allocs := testing.AllocsPerRun(100, func() { _ = pk.Size() }); allocs != 0 {
		t.Errorf("Pack.Size() of 64 items: %v allocs, want 0", allocs)
	}
}

// BenchmarkPackSize tracks Pack.Size() on a 64-item pack of MW runs
// (TestPackSizeZeroAlloc pins it at zero allocations).
func BenchmarkPackSize(b *testing.B) {
	pk := mwRunPack(64)
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		n += pk.Size()
	}
	if n == 0 {
		b.Fatal("empty pack")
	}
}

// TestNodeFrameMWIDRoundTrip: a node frame is a Pack of scope
// envelopes, and a scope's inner payload, itself a core pack or a bare
// deal, is decoded later from Raw on its own. Its MWIDs must therefore
// be coded against the zero MWID, not against the enclosing frame's.
func TestNodeFrameMWIDRoundTrip(t *testing.T) {
	c := fullCodec()
	e := []field.Element{field.New(5)}
	inner := proto.Pack{Items: []sim.Payload{
		mwsvss.Echo{MW: mwID(1, 2), Vals: e},
		mwsvss.Echo{MW: mwID(2, 2), Vals: e},
		mwsvss.Echo{MW: mwID(1, 3), Vals: e},
	}}
	deal := mwsvss.DealVals{MW: mwID(1, 3), Vals: e}
	frame := proto.Pack{Items: []sim.Payload{
		proto.Scoped{Scope: 9, Inner: inner},
		proto.Scoped{Scope: 9, Inner: deal},
		deal, // a bare MWIDLed item of the frame after the envelopes
	}}
	enc, err := c.Encode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != proto.FrameSize(frame) {
		t.Errorf("frame encoded %d bytes, FrameSize %d", len(enc), proto.FrameSize(frame))
	}
	p, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := p.(proto.Pack).Items
	if len(got) != 3 {
		t.Fatalf("decoded %d items, want 3", len(got))
	}
	for i, want := range []sim.Payload{inner, deal} {
		raw := got[i].(proto.Scoped).Raw
		if wantRaw, _ := c.Encode(want); !bytes.Equal(raw, wantRaw) {
			t.Errorf("envelope %d: Raw %x, the standalone frame is %x", i, raw, wantRaw)
		}
		q, err := c.Decode(raw)
		if err != nil {
			t.Fatalf("envelope %d: Raw does not decode on its own: %v", i, err)
		}
		if re, _ := c.Encode(q); !bytes.Equal(re, raw) {
			t.Errorf("envelope %d: Raw re-encodes to %x, want %x", i, re, raw)
		}
	}
	if pk, ok := mustDecode(t, c, got[0].(proto.Scoped).Raw).(proto.Pack); !ok ||
		pk.Items[2].(mwsvss.Echo).MW != mwID(1, 3) {
		t.Errorf("inner pack decoded as %v", pk)
	}
	// The bare deal after the envelopes is the frame's first MWIDLed
	// item: the envelopes moved no base, so it decodes to itself.
	if d := got[2].(mwsvss.DealVals); d.MW != deal.MW {
		t.Errorf("frame's own deal decoded as %v, want %v", d.MW, deal.MW)
	}
}

func mustDecode(t *testing.T, c *proto.Codec, b []byte) sim.Payload {
	t.Helper()
	p, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// echoPack hand-builds a pack frame of one echo group whose item bodies
// are the given MWID encodings, each followed by one 8-byte element.
func echoPack(ids ...[]byte) []byte {
	pack, _ := proto.KindCode(proto.KindPack)
	echo, _ := proto.KindCode(mwsvss.KindEcho)
	b := []byte{pack, 1, echo}
	if len(ids) > 1 {
		b = append(b[:2], echo|0x80, byte(len(ids)))
	}
	for _, id := range ids {
		b = append(b, byte(len(id)+8))
		b = append(b, id...)
		b = append(b, 7, 0, 0, 0, 0, 0, 0, 0)
	}
	return b
}

// MWID mask bits (the identifier encoding): 0x01 Session.Dealer, 0x02
// Kind, 0x04 Round, 0x08 MW.Dealer, 0x10 MW.Moderator, 0x20 Index;
// 0x40 is the retired MW slot.
var mwidRefusals = []struct {
	name  string
	frame []byte
}{
	{"first item sets a field to the zero MWID's value", echoPack([]byte{0x01, 0})},
	{"item sets a field to the previous item's value", echoPack([]byte{0x01, 3}, []byte{0x01, 3})},
	{"unknown mask bit", echoPack([]byte{0x80, 0x01, 1})},
	{"overlong mask", echoPack([]byte{0x81, 0x00, 3})},
	{"overlong field value", echoPack([]byte{0x01, 3}, []byte{0x04, 0x81, 0x00})},
	{"retired slot bit", echoPack([]byte{0x40, 0x01})},
	{"process id wider than 16 bits", echoPack([]byte{0x01, 3}, []byte{0x08, 0x80, 0x80, 0x04})},
}

// TestPackRefusesNonCanonicalMWIDs: one row per refusal of the pack's
// MWID delta, each refusing the whole frame; the canonical
// counterparts decode.
func TestPackRefusesNonCanonicalMWIDs(t *testing.T) {
	c := fullCodec()
	for name, b := range map[string][]byte{
		"one echo":                   echoPack([]byte{0x01, 3}),
		"same instance twice":        echoPack([]byte{0x01, 3}, []byte{0}),
		"a field set back to zero":   echoPack([]byte{0x01, 3}, []byte{0x01, 0}),
		"the zero MWID, empty masks": echoPack([]byte{0}, []byte{0}),
		"a changed process id":       echoPack([]byte{0x01, 3}, []byte{0x09, 4, 0x80, 0x80, 0x02}),
		"a changed two-byte round":   echoPack([]byte{0x04, 0x81, 0x01}, []byte{0x04, 0x82, 0x01}),
		"an index of 255 then zero":  echoPack([]byte{0x20, 0xFF, 0x01}, []byte{0x20, 0}),
	} {
		p, err := c.Decode(b)
		if err != nil {
			t.Errorf("%s: %x refused: %v", name, b, err)
			continue
		}
		if re, err := c.Encode(p); err != nil || !bytes.Equal(re, b) {
			t.Errorf("%s: re-encodes to %x, input %x (err %v)", name, re, b, err)
		}
	}
	for _, r := range mwidRefusals {
		if p, err := c.Decode(r.frame); err == nil {
			t.Errorf("%s: %x decoded as %v", r.name, r.frame, p)
		}
	}
}
