package proto_test

import (
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

func TestBundleRoundTrip(t *testing.T) {
	tags, vals := seedBundleItems()
	body := proto.EncodeBundle(tags, vals)
	want := 1 // uvarint count
	for i, tag := range tags {
		want += tag.Size() + proto.VarBytesSize(len(vals[i]))
	}
	if len(body) != want {
		t.Fatalf("encoded %d bytes, tag and value sizes say %d", len(body), want)
	}
	items, err := proto.DecodeBundle(body)
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
	if _, err := proto.DecodeBundle(body); err == nil {
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
		if _, err := proto.DecodeBundle(b); err == nil {
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
	// kind code, item count, then per item a kind code, a length and
	// the body: origin 2 + tag (Proto, mask, Step) 3 + value.
	want := 1 + 1 + (1 + 1 + 2 + 3 + 1 + 3) + (1 + 1 + 2 + 3 + 1)
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
	// code: pack code, count 1, item code, body length 0.
	pack, _ := proto.KindCode(proto.KindPack)
	for _, code := range []byte{0, 200, proto.BatchMagic} {
		if _, err := c.Decode([]byte{pack, 1, code, 0}); err == nil {
			t.Fatalf("pack with item kind code %d decoded", code)
		}
	}
}
