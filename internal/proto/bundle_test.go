package proto_test

import (
	"testing"

	"svssba/internal/aba"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

func TestBundleRoundTrip(t *testing.T) {
	tags, vals := seedBundleItems()
	body := proto.EncodeBundle(tags, vals)
	// The count, then per item a change mask (two bytes: every item
	// changes Step, A or Round, which sit on bits 5, 9 and 8), one byte
	// per changed field and the length-prefixed value. The first item
	// sets nine fields against the zero tag, the second changes Step and
	// A, the last two Proto, Step and A.
	want := 1 + (2 + 9 + 1) + (2 + 2 + 1 + 4) + (2 + 3 + 1 + 10) + (2 + 3 + 2 + 128)
	if len(body) != want {
		t.Fatalf("encoded %d bytes, the delta rule says %d", len(body), want)
	}
	items, err := proto.DecodeBundle(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(tags) {
		t.Fatalf("decoded %d items, want %d", len(items), len(tags))
	}
	for i, it := range items {
		if it.Tag != tags[i] {
			t.Errorf("item %d tag changed: %v != %v", i, it.Tag, tags[i])
		}
		if !bytesEq(it.Value, vals[i]) {
			t.Errorf("item %d value changed", i)
		}
	}
}

func TestBundleRejectsNestedTag(t *testing.T) {
	body := proto.EncodeBundle(
		[]proto.Tag{{Proto: proto.ProtoBundle, A: 1}},
		[][]byte{[]byte("inner")})
	if _, err := proto.DecodeBundle(nil, body); err == nil {
		t.Fatal("bundle with a nested ProtoBundle tag decoded")
	}
}

func TestBundleRejectsOverCount(t *testing.T) {
	// A count far beyond the body length must be rejected before any
	// allocation sized by it.
	for _, b := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},
		{0x02, proto.ProtoRB, 0x00, 0x00}, // two items, room for one
	} {
		if _, err := proto.DecodeBundle(nil, b); err == nil {
			t.Fatalf("absurd count decoded: %x", b)
		}
	}
}

func TestPackSizeMatchesEncoding(t *testing.T) {
	c := fullCodec()
	pk := proto.Pack{Items: []sim.Payload{
		rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoMW, Step: 1}, Value: []byte("xyz")},
		rb.Msg{Origin: 2, Tag: proto.Tag{Proto: proto.ProtoSVSS, Step: 2}, Value: nil},
	}}
	enc, err := c.Encode(pk)
	if err != nil {
		t.Fatal(err)
	}
	// kind code, group count, the one group's header (kind code with the
	// count bit) and item count, then per item a length and the body:
	// origin 1 (a uvarint) + tag (Proto, mask, Step) 3 + value.
	want := 1 + 1 + (1 + 1) + (1 + 1 + 3 + 1 + 3) + (1 + 1 + 3 + 1)
	if len(enc) != want || proto.FrameSize(pk) != want {
		t.Fatalf("encoded %d bytes, FrameSize() %d, want %d", len(enc), proto.FrameSize(pk), want)
	}
	p, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.(proto.Pack)
	if !ok {
		t.Fatalf("decoded %T, want Pack", p)
	}
	if len(got.Items) != 2 {
		t.Fatalf("decoded %d items, want 2", len(got.Items))
	}
}

func TestPackRejectsNestedPack(t *testing.T) {
	c := fullCodec()
	inner := proto.Pack{Items: []sim.Payload{
		rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoMW}, Value: []byte("v")},
	}}
	outer := proto.Pack{Items: []sim.Payload{inner}}
	enc, err := c.Encode(outer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(enc); err == nil {
		t.Fatal("nested pack decoded")
	}
}

func TestPackRejectsUnknownKind(t *testing.T) {
	c := fullCodec()
	// Hand-build pack frames holding one item of an unassigned kind
	// code: pack code, one group of that code with one item, body
	// length 0.
	pack, _ := proto.KindCode(proto.KindPack)
	for _, code := range []byte{0, 100, 0x7F} {
		if _, err := c.Decode([]byte{pack, 1, code, 0}); err == nil {
			t.Fatalf("pack with item kind code %d decoded", code)
		}
	}
}

// TestPackRefusesNonCanonicalGroups: a counted group of zero items or
// one, and two adjacent groups of one kind, are refused whole, so every
// accepted Pack re-encodes to its input; the same items in one group
// decode.
func TestPackRefusesNonCanonicalGroups(t *testing.T) {
	c := fullCodec()
	pack, _ := proto.KindCode(proto.KindPack)
	bval, _ := proto.KindCode(aba.KindBVal)
	aux, _ := proto.KindCode(aba.KindAux)
	vote := []byte{1, 0, 1} // the body of aba.Vote{Step: 1, Round: 0, Value: 1}
	item := append([]byte{byte(len(vote))}, vote...)
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	counted := func(code byte) byte { return code | 0x80 }
	good := cat([]byte{pack, 1, counted(bval), 2}, item, item)
	if p, err := c.Decode(good); err != nil || len(p.(proto.Pack).Items) != 2 {
		t.Fatalf("canonical two-item group: %v, err %v", p, err)
	}
	for name, b := range map[string][]byte{
		"empty group":          {pack, 1, counted(bval), 0},
		"counted single item":  cat([]byte{pack, 1, counted(bval), 1}, item),
		"empty middle group":   cat([]byte{pack, 3, bval}, item, []byte{counted(aux), 0, bval}, item),
		"adjacent same kind":   cat([]byte{pack, 2, bval}, item, []byte{bval}, item),
		"nested pack group":    {pack, 1, pack, 2, 0, 0},
		"count past remaining": cat([]byte{pack, 1, counted(bval), 3}, item),
	} {
		if _, err := c.Decode(b); err == nil {
			t.Errorf("%s: %x decoded", name, b)
		}
	}
}

// TestBundleDeltaRuns round-trips a body shaped like a reconstruction's
// bundle: runs of items of one session that differ only in their MW key,
// broken by Proto and session changes. An item that changes only its
// slot costs its mask, one field byte and its value.
func TestBundleDeltaRuns(t *testing.T) {
	var tags []proto.Tag
	var vals [][]byte
	for _, ns := range []uint8{proto.ProtoMW, proto.ProtoSVSS, proto.ProtoMW} {
		for dealer := sim.ProcID(1); dealer <= 3; dealer++ {
			for mod := sim.ProcID(1); mod <= 3; mod++ {
				for slot := uint8(0); slot < 2; slot++ {
					tags = append(tags, proto.Tag{
						Proto:   ns,
						Session: proto.SessionID{Dealer: 2, Kind: proto.KindCoin, Round: 300, Index: 5},
						MW:      proto.MWKey{Dealer: dealer, Moderator: mod, Slot: slot},
						Step:    4,
					})
					vals = append(vals, []byte{byte(dealer), byte(mod), slot})
				}
			}
		}
	}
	body := proto.EncodeBundle(tags, vals)
	items, err := proto.DecodeBundle(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(tags) {
		t.Fatalf("decoded %d items, want %d", len(items), len(tags))
	}
	for i, it := range items {
		if it.Tag != tags[i] || !bytesEq(it.Value, vals[i]) {
			t.Fatalf("item %d changed: %v != %v", i, it.Tag, tags[i])
		}
	}
	two := proto.EncodeBundle(tags[:2], vals[:2])
	one := proto.EncodeBundle(tags[:1], vals[:1])
	if got := len(two) - len(one); got != 1+1+4 {
		t.Errorf("a slot-only change costs %d bytes, want 6", got)
	}
}

// bundleRefusals are hand-built bundle bodies the decoder must refuse,
// one per canonical-form rule (also FuzzBundleDecode seeds). Mask bit 6
// (0x40) is Proto; proto.ProtoMW is 3.
var bundleRefusals = []struct {
	name string
	body []byte
}{
	{"unknown mask bit", []byte{1, 0x80, 0x08, 0}},
	{"first item sets a field to the zero tag's value", []byte{1, 0x40, 0, 0}},
	{"item sets a field to the previous item's value", []byte{2, 0x40, 3, 0, 0x40, 3, 0}},
	{"overlong mask", []byte{1, 0xC0, 0x00, 3, 0}},
	{"overlong field value", []byte{1, 0x40, 0x83, 0x00, 0}},
	{"value wider than its field", []byte{1, 0x40, 0x80, 0x02, 0}},
	{"process id wider than 16 bits", []byte{1, 0x42, 0x80, 0x80, 0x04, 3, 0}},
	{"nested bundle tag", []byte{1, 0x40, proto.ProtoBundle, 0}},
}

func TestBundleRefusesNonCanonicalTags(t *testing.T) {
	if items, err := proto.DecodeBundle(nil, []byte{1, 0x40, 3, 0}); err != nil || len(items) != 1 ||
		items[0].Tag != (proto.Tag{Proto: proto.ProtoMW}) {
		t.Fatalf("canonical one-item body: %v, err %v", items, err)
	}
	for _, c := range bundleRefusals {
		if _, err := proto.DecodeBundle(nil, c.body); err == nil {
			t.Errorf("%s: %x decoded", c.name, c.body)
		}
	}
}
