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

// seedBatch is a representative multi-group batch: echo runs for several
// concurrent tags (the aggregation case) plus a kind switch.
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
	b, err := c.EncodeBatch([]sim.Payload{
		rb.Msg{Origin: 1, Tag: mk(1), Value: []byte("a")},
		rb.Msg{Origin: 2, Tag: mk(2), Value: []byte("bb")},
		rb.Msg{Origin: 4, Tag: mk(5), Value: bytes.Repeat([]byte("w"), 128)}, // 2-byte length
		rb.WeakMsg{Origin: 3, Tag: mk(3), Phase: 2, Value: []byte("c")},
		aba.Vote{Step: 1, Round: 4, Value: 1},
		aba.Vote{Step: 2, Round: 4, Value: 0},
	})
	if err != nil {
		t.Fatalf("seed batch encode: %v", err)
	}
	return b
}

// FuzzBatchFrame feeds arbitrary bytes to the batch decoder — the frame
// surface a Byzantine sender controls on a batching transport. DecodeBatch
// must never panic, must reject truncations cleanly, and everything it
// accepts must survive a re-encode round trip payload-for-payload.
func FuzzBatchFrame(f *testing.F) {
	seed := seedBatch(f)
	f.Add(seed)
	for cut := 1; cut < len(seed); cut += 7 {
		f.Add(seed[:cut]) // truncation ladder
	}
	for _, b := range seedPayloads(f) {
		f.Add(b) // single-payload frames must be rejected as ErrNotBatch
	}
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	c := fullCodec()
	f.Fuzz(func(t *testing.T, b []byte) {
		ps, err := c.DecodeBatch(b)
		if err != nil {
			if !proto.IsBatch(b) && err != proto.ErrNotBatch {
				t.Fatalf("non-batch input rejected with %v, want ErrNotBatch", err)
			}
			return
		}
		if len(ps) == 0 {
			return // header-only frame with zero groups is harmless
		}
		enc, err := c.EncodeBatch(ps)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		ps2, err := c.DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(ps, ps2) {
			t.Fatalf("batch changed across round trip:\n  first:  %#v\n  second: %#v", ps, ps2)
		}
		// Truncating an accepted frame anywhere inside must error, never
		// panic and never silently succeed with the full payload set.
		for _, cut := range []int{len(b) - 1, len(b) / 2, 1} {
			if cut < 1 || cut >= len(b) {
				continue
			}
			if got, err := c.DecodeBatch(b[:cut]); err == nil && len(got) >= len(ps) {
				t.Fatalf("truncation to %d bytes still decoded %d payloads", cut, len(got))
			}
		}
	})
}
