package proto_test

import (
	"bytes"
	"reflect"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/baseline"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// fullCodec is the codec with every protocol message type registered —
// the exact decoder surface a Byzantine sender can feed arbitrary bytes
// into on the live runtime.
func fullCodec() *proto.Codec {
	c := core.NewCodec()
	baseline.RegisterCodec(c)
	return c
}

// seedPayloads is a representative valid message per protocol layer, so
// the fuzzers start from encodings that reach deep into each decoder.
func seedPayloads(t testing.TB) [][]byte {
	t.Helper()
	c := fullCodec()
	tag := proto.Tag{
		Proto:   proto.ProtoMW,
		Session: proto.SessionID{Dealer: 2, Kind: proto.KindCoin, Round: 7, Index: 3},
		MW:      proto.MWKey{Dealer: 2, Moderator: 1, Slot: 1},
		Step:    mwsvss.StepRValSlab,
		A:       9,
	}
	payloads := []sim.Payload{
		aba.Vote{Step: 1, Round: 4, Value: 1},
		aba.Conf{Round: 4, Mask: 3},
		aba.Decide{Value: 1},
		rb.Msg{Origin: 2, Tag: tag, Value: []byte("v")},
		mwsvss.Echo{MW: proto.MWID{Session: tag.Session, Key: tag.MW}, Vals: []field.Element{field.New(42)}},
		svss.Deal{
			Session: tag.Session,
			RowPts:  []field.Element{field.New(1), field.New(2)},
			ColPts:  []field.Element{field.New(3)},
		},
	}
	var out [][]byte
	for _, p := range payloads {
		b, err := c.Encode(p)
		if err != nil {
			t.Fatalf("seed encode %q: %v", p.Kind(), err)
		}
		out = append(out, b)
	}
	return out
}

// nonCanonicalSeeds are near misses of valid frames that Decode must
// reject: each one decodes to a payload whose encoding is different
// bytes.
func nonCanonicalSeeds(t testing.TB) [][]byte {
	t.Helper()
	code := func(kind string) byte {
		c, ok := proto.KindCode(kind)
		if !ok {
			t.Fatalf("kind %q has no wire code", kind)
		}
		return c
	}
	return [][]byte{
		{code(aba.KindConf), 0x84, 0x00, 3},                   // round 4 as an overlong varint
		{code(aba.KindBVal), 2, 4, 1},                         // an AUX step under the BVAL code
		{code(rb.KindType3), 2, 0, 2, 0x01, 0x00, 0x01, 'v'},  // tag Step bit set, Step 0
		{code(rb.KindType3), 2, 0, 2, 0x02, 0x09, 0x80, 0x00}, // overlong value length
		{code(mwsvss.KindEcho), 0x01, 0x02, // echo carrying the field's modulus
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f},
		{code(proto.KindPack), 2, // two adjacent BVAL groups of one vote each
			code(aba.KindBVal), 3, 1, 0, 1, code(aba.KindBVal), 3, 1, 0, 1},
		{code(proto.KindPack), 1, // one vote in a counted group
			code(aba.KindBVal) | 0x80, 1, 3, 1, 0, 1},
	}
}

// FuzzDecode feeds arbitrary bytes to the full codec — the traffic a
// Byzantine sender controls. Decode must never panic, and anything it
// accepts must re-encode cleanly with the payload's analytic Size()
// matching the marshaled length (the codec's documented contract).
func FuzzDecode(f *testing.F) {
	for _, b := range seedPayloads(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	c := fullCodec()
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := c.Decode(b)
		if err != nil {
			return
		}
		enc, err := c.Encode(p)
		if err != nil {
			t.Fatalf("accepted payload %q does not re-encode: %v", p.Kind(), err)
		}
		if len(enc) != proto.FrameSize(p) {
			t.Fatalf("payload %q: Size()=%d but the body is %d bytes",
				p.Kind(), p.Size(), len(enc)-1)
		}
	})
}

// FuzzRoundTrip checks that the encoding is canonical: every input the
// codec accepts re-encodes to exactly the same bytes (varint lengths,
// rounds, kind codes, tags and field elements have one encoding each),
// and decode ∘ encode is the identity on the decoded payload — whatever
// decodable bytes a Byzantine sender crafts, the process's view of the
// message survives a wire round trip unchanged.
func FuzzRoundTrip(f *testing.F) {
	for _, b := range seedPayloads(f) {
		f.Add(b)
	}
	for _, b := range nonCanonicalSeeds(f) {
		f.Add(b)
	}
	c := fullCodec()
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := c.Decode(b)
		if err != nil {
			return
		}
		enc, err := c.Encode(p)
		if err != nil {
			t.Fatalf("re-encode %q: %v", p.Kind(), err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("payload %q accepted from a non-canonical encoding:\n  in:  %x\n  out: %x",
				p.Kind(), b, enc)
		}
		p2, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode %q: %v", p.Kind(), err)
		}
		if p2.Kind() != p.Kind() {
			t.Fatalf("kind changed across round trip: %q -> %q", p.Kind(), p2.Kind())
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("payload %q changed across round trip:\n  first:  %#v\n  second: %#v",
				p.Kind(), p, p2)
		}
	})
}
