package proto_test

import (
	"bytes"
	"reflect"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// seedBatch is a representative multi-group Pack frame: echo runs for
// several concurrent tags (the aggregation case) plus kind switches.
func seedBatch(t testing.TB) []byte {
	t.Helper()
	c := fullCodec()
	mk := func(round uint64) proto.Tag {
		return proto.Tag{
			Proto:   proto.ProtoMW,
			Session: proto.SessionID{Dealer: 1, Kind: proto.KindCoin, Round: round, Index: 2},
			MW:      proto.MWKey{Dealer: 1, Moderator: 3, Slot: 0},
			Step:    mwsvss.StepAck,
		}
	}
	b, err := c.Encode(proto.Pack{Items: []sim.Payload{
		rb.Msg{Origin: 1, Tag: mk(1), Value: []byte("a")},
		rb.Msg{Origin: 2, Tag: mk(2), Value: []byte("bb")},
		rb.Msg{Origin: 4, Tag: mk(5), Value: bytes.Repeat([]byte("w"), 128)}, // 2-byte length
		rb.WeakMsg{Origin: 3, Tag: mk(3), Phase: 2, Value: []byte("c")},
		aba.Vote{Step: 1, Round: 4, Value: 1},
		aba.Vote{Step: 2, Round: 4, Value: 0},
	}})
	if err != nil {
		t.Fatalf("seed batch encode: %v", err)
	}
	return b
}

// FuzzBatchFrame checks the deprecated DecodeBatch wrapper against the
// codec: on every input it fails exactly when the input is not a
// decodable Pack, and otherwise returns the Pack's items. The frame
// decoder itself is fuzzed by FuzzPackDecode.
func FuzzBatchFrame(f *testing.F) {
	for _, b := range packFrameSeeds(f) {
		f.Add(b)
	}
	c := fullCodec()
	f.Fuzz(func(t *testing.T, b []byte) {
		ps, err := c.DecodeBatch(b)
		p, derr := c.Decode(b)
		pk, isPack := p.(proto.Pack)
		if (err == nil) != (derr == nil && isPack) {
			t.Fatalf("DecodeBatch err %v; Decode %T, err %v", err, p, derr)
		}
		if err == nil && !reflect.DeepEqual(ps, pk.Items) {
			t.Fatalf("DecodeBatch items differ from the Pack's:\n  batch: %#v\n  pack:  %#v", ps, pk.Items)
		}
	})
}
