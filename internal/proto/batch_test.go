package proto_test

import (
	"reflect"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

func batchPayloads() []sim.Payload {
	mk := func(round uint64) proto.Tag {
		return proto.Tag{
			Proto:   proto.ProtoMW,
			Session: proto.SessionID{Dealer: 2, Kind: proto.KindCoin, Round: round},
			MW:      proto.MWKey{Dealer: 2, Moderator: 1, Slot: 1},
			Step:    mwsvss.StepAck,
		}
	}
	return []sim.Payload{
		rb.Msg{Origin: 1, Tag: mk(1), Value: []byte("x")},
		rb.Msg{Origin: 2, Tag: mk(2), Value: nil},
		rb.Msg{Origin: 3, Tag: mk(3), Value: []byte("yy")},
		aba.Vote{Step: 1, Round: 9, Value: 1},
		rb.Msg{Origin: 4, Tag: mk(4), Value: []byte("z")},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	c := fullCodec()
	ps := batchPayloads()
	enc, err := c.EncodeBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	if !proto.IsBatch(enc) {
		t.Fatal("EncodeBatch output not recognized by IsBatch")
	}
	got, err := c.DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(ps), normalize(got)) {
		t.Fatalf("round trip mismatch:\n want %#v\n got  %#v", ps, got)
	}
}

// normalize maps nil and empty byte slices to a canonical form: the wire
// format cannot distinguish them, and the protocols treat values as
// opaque strings.
func normalize(ps []sim.Payload) []sim.Payload {
	out := make([]sim.Payload, len(ps))
	for i, p := range ps {
		if m, ok := p.(rb.Msg); ok && len(m.Value) == 0 {
			m.Value = nil
			out[i] = m
			continue
		}
		out[i] = p
	}
	return out
}

// TestBatchGroupsConsecutiveKinds pins the exact batch layout: runs of
// consecutive same-kind payloads share one group (one kind code), so
// the frame is the magic byte, the group count, and per group a code
// and a count, plus a length prefix per body. With one-byte kind codes
// a batch is no longer smaller than the payloads' single frames (each
// length prefix costs what a kind code does); what grouping buys is one
// physical frame for many payloads.
func TestBatchGroupsConsecutiveKinds(t *testing.T) {
	c := fullCodec()
	ps := batchPayloads() // runs: rb×3, aba×1, rb×1 -> 3 groups
	enc, err := c.EncodeBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 1 // magic, group count
	want += 3 * 2 // per group: kind code, payload count
	for _, p := range ps {
		want += proto.UvarintSize(uint64(p.Size())) + p.Size()
	}
	if len(enc) != want {
		t.Fatalf("batch frame is %d B, want %d", len(enc), want)
	}
	got, err := c.DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(ps))
	}
	// Only the three group headers carry kind codes.
	abac, _ := proto.KindCode(aba.KindBVal)
	rbc, _ := proto.KindCode(rb.KindType3)
	var codes []byte
	for i, off := 0, 2; i < 3; i++ {
		codes = append(codes, enc[off])
		n := int(enc[off+1])
		off += 2
		for j := 0; j < n; j++ {
			off += 1 + int(enc[off])
		}
	}
	if !reflect.DeepEqual(codes, []byte{rbc, abac, rbc}) {
		t.Fatalf("group codes %v, want [%d %d %d]", codes, rbc, abac, rbc)
	}
}

func TestBatchRejectsNonBatch(t *testing.T) {
	c := fullCodec()
	single, err := c.Encode(aba.Vote{Step: 1, Round: 1, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeBatch(single); err != proto.ErrNotBatch {
		t.Fatalf("single-payload frame: got %v, want ErrNotBatch", err)
	}
	if _, err := c.DecodeBatch(nil); err != proto.ErrNotBatch {
		t.Fatalf("nil input: got %v, want ErrNotBatch", err)
	}
	if _, err := c.EncodeBatch(nil); err == nil {
		t.Fatal("empty batch encoded without error")
	}
}

func TestBatchTruncationErrors(t *testing.T) {
	c := fullCodec()
	enc, err := c.EncodeBatch(batchPayloads())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := c.DecodeBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(enc))
		}
	}
	// Trailing garbage after a complete frame must also be rejected.
	if _, err := c.DecodeBatch(append(append([]byte{}, enc...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestAppendEncodeBatchZeroAlloc(t *testing.T) {
	c := fullCodec()
	ps := batchPayloads()
	buf, err := c.AppendEncodeBatch(nil, ps)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, buf...)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := c.AppendEncodeBatch(buf[:0], ps)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("AppendEncodeBatch into warm buffer: %v allocs/op, want 0", allocs)
	}
	if !reflect.DeepEqual(buf, want) {
		t.Fatal("reused-buffer encoding differs")
	}
}
