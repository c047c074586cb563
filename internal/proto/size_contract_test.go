package proto_test

import (
	"bytes"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/baseline"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// varintBoundaries are the values where a uvarint changes width (and
// the widest value); each is clamped to the width of the field it
// fills.
var varintBoundaries = []uint64{0, 127, 128, 16383, 16384, ^uint64(0)}

// contractSamples returns one payload of every wire kind with every
// varint-encoded field (identifier fields, rounds, scopes, lengths and
// counts) set to v, clamped to the field's width.
func contractSamples(v uint64) []sim.Payload {
	cl := func(max uint64) uint64 { return min(v, max) }
	n := int(cl(16384)) // lengths and counts: the width boundaries suffice
	id := proto.MWID{
		Session: proto.SessionID{
			Dealer: sim.ProcID(cl(0xFFFF)),
			Kind:   proto.SessionKind(cl(0xFF)),
			Round:  v,
			Index:  uint32(cl(0xFFFFFFFF)),
		},
		Key: proto.MWKey{
			Dealer:    sim.ProcID(cl(0xFFFF)),
			Moderator: sim.ProcID(cl(0xFFFF)),
		},
	}
	tag := proto.Tag{Proto: proto.ProtoMW, Session: id.Session, MW: id.Key,
		Step: uint8(cl(0xFF)), A: uint32(cl(0xFFFFFFFF))}
	value := bytes.Repeat([]byte{0x5a}, n)
	elems := make([]field.Element, n%5)
	for i := range elems {
		elems[i] = field.New(field.Modulus - 1 - uint64(i))
	}
	votes := make([]sim.Payload, n)
	for i := range votes {
		votes[i] = aba.Vote{Step: 1, Round: uint64(i), Value: 1}
	}
	inner := rb.Msg{Origin: sim.ProcID(cl(0xFFFF)), Tag: tag, Value: value}
	return []sim.Payload{
		inner,
		rb.WeakMsg{Origin: 2, Tag: tag, Phase: 1, Value: value},
		rb.WeakMsg{Origin: 3, Tag: tag, Phase: 2, Value: value},
		rb.Pull{Origin: sim.ProcID(cl(0xFFFF)), Tag: tag},
		mwsvss.DealVals{MW: id, Vals: elems},
		mwsvss.DealPoly{MW: id, Shares: elems},
		mwsvss.DealMod{MW: id, Shares: elems},
		mwsvss.Echo{MW: id, Vals: elems},
		mwsvss.ModValue{MW: id, Vals: elems},
		svss.Deal{Session: id.Session, RowPts: elems, ColPts: elems},
		aba.Vote{Step: 1, Round: v, Value: 1},
		aba.Vote{Step: 2, Round: v, Value: 0},
		aba.Conf{Round: v, Mask: 3},
		aba.Decide{Value: 1},
		proto.Pack{Items: votes},
		proto.Scoped{Scope: v, Inner: inner},
		baseline.BenOrMsg{Phase: 1, Round: v, Value: 1},
	}
}

// TestSizeContractEveryKind pins, for every kind on the wire table and
// at every varint width boundary, that Size() is the MarshalTo length,
// FrameSize is the single-frame length, the frame decodes and
// re-encodes to the same bytes, and a Pack of two copies of the payload
// (one group; the second copy of an MWIDLed payload writes an empty
// MWID mask) is FrameSize bytes long.
func TestSizeContractEveryKind(t *testing.T) {
	c := fullCodec()
	covered := map[string]bool{}
	for _, v := range varintBoundaries {
		for _, p := range contractSamples(v) {
			covered[p.Kind()] = true
			var w proto.Writer
			p.(proto.Marshaler).MarshalTo(&w)
			if w.Len() != p.Size() {
				t.Errorf("%s at %d: marshaled %d bytes, Size() %d", p.Kind(), v, w.Len(), p.Size())
			}
			enc, err := c.Encode(p)
			if err != nil {
				t.Fatalf("%s at %d: encode: %v", p.Kind(), v, err)
			}
			if len(enc) != proto.FrameSize(p) {
				t.Errorf("%s at %d: frame is %d bytes, FrameSize %d", p.Kind(), v, len(enc), proto.FrameSize(p))
			}
			dec, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s at %d: decode: %v", p.Kind(), v, err)
			}
			re, err := c.Encode(dec)
			if err != nil || !bytes.Equal(re, enc) {
				t.Errorf("%s at %d: re-encoding differs (err %v)", p.Kind(), v, err)
			}
			pk := proto.Pack{Items: []sim.Payload{p, p}}
			if enc, err := c.Encode(pk); err != nil || len(enc) != proto.FrameSize(pk) {
				t.Errorf("%s at %d: pack of two is %d bytes, FrameSize %d (err %v)", p.Kind(), v, len(enc), proto.FrameSize(pk), err)
			}
		}
	}
	for code, name := range proto.KindNames {
		if name != "" && !covered[name] {
			t.Errorf("wire kind %q (code %d) has no size-contract sample", name, code)
		}
	}
}
