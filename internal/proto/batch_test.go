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
			MW:      proto.MWKey{Dealer: 2, Moderator: 1},
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

// packFrame encodes ps as one Pack frame.
func packFrame(t *testing.T, c *proto.Codec, ps []sim.Payload) []byte {
	t.Helper()
	enc, err := c.Encode(proto.Pack{Items: ps})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// packItems decodes a Pack frame into its items.
func packItems(t *testing.T, c *proto.Codec, b []byte) []sim.Payload {
	t.Helper()
	p, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	pk, ok := p.(proto.Pack)
	if !ok {
		t.Fatalf("decoded %T, want a Pack", p)
	}
	return pk.Items
}

// TestBatchRoundTrip: a multi-payload Pack frame decodes back to its
// payloads, in order.
func TestBatchRoundTrip(t *testing.T) {
	c := fullCodec()
	ps := batchPayloads()
	got := packItems(t, c, packFrame(t, c, ps))
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

// TestBatchGroupsConsecutiveKinds pins the exact Pack layout: runs of
// consecutive same-kind payloads share one group (one kind code), so
// the frame is the pack's kind code, the group count, and per group a
// header byte — the kind code, with the count bit and a count after it
// for a group of two or more — plus a length prefix per body.
func TestBatchGroupsConsecutiveKinds(t *testing.T) {
	c := fullCodec()
	ps := batchPayloads() // runs: rb×3, aba×1, rb×1 -> 3 groups
	enc := packFrame(t, c, ps)
	want := 1 + 1     // pack kind code, group count
	want += 2 + 1 + 1 // group headers: rb with its count, aba, rb
	for _, p := range ps {
		want += proto.UvarintSize(uint64(p.Size())) + p.Size()
	}
	if len(enc) != want {
		t.Fatalf("pack frame is %d B, want %d", len(enc), want)
	}
	if got := packItems(t, c, enc); len(got) != len(ps) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(ps))
	}
	// Only the three group headers carry kind codes.
	abac, _ := proto.KindCode(aba.KindBVal)
	rbc, _ := proto.KindCode(rb.KindType3)
	var headers []byte
	for i, off := 0, 2; i < 3; i++ {
		headers = append(headers, enc[off])
		n := 1
		if enc[off]&0x80 != 0 {
			n = int(enc[off+1])
			off++
		}
		off++
		for j := 0; j < n; j++ {
			off += 1 + int(enc[off])
		}
	}
	if want := []byte{rbc | 0x80, abac, rbc}; !reflect.DeepEqual(headers, want) {
		t.Fatalf("group headers %v, want %v", headers, want)
	}
}

// TestBatchRejectsNonBatch pins the deprecated DecodeBatch wrapper: a
// frame that is not a Pack, and an empty input, are errors; an empty
// item list encodes as the empty Pack and decodes to no items.
func TestBatchRejectsNonBatch(t *testing.T) {
	c := fullCodec()
	single, err := c.Encode(aba.Vote{Step: 1, Round: 1, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeBatch(single); err == nil {
		t.Fatal("single-payload frame decoded as a batch")
	}
	if _, err := c.DecodeBatch(nil); err == nil {
		t.Fatal("nil input decoded as a batch")
	}
	empty, err := c.EncodeBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.DecodeBatch(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %d items, err %v", len(got), err)
	}
}

// TestBatchTruncationErrors: every strict prefix of a Pack frame, and
// the frame with a trailing byte, fail to decode.
func TestBatchTruncationErrors(t *testing.T) {
	c := fullCodec()
	enc := packFrame(t, c, batchPayloads())
	for cut := 1; cut < len(enc); cut++ {
		if _, err := c.Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(enc))
		}
	}
	// Trailing garbage after a complete frame must also be rejected.
	if _, err := c.Decode(append(append([]byte{}, enc...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestAppendEncodeBatchZeroAlloc: a Pack held by pointer encodes into a
// warm buffer without allocating, to the same bytes as a fresh encode.
func TestAppendEncodeBatchZeroAlloc(t *testing.T) {
	c := fullCodec()
	pk := &proto.Pack{Items: batchPayloads()}
	buf, err := c.AppendEncode(nil, pk)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, buf...)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := c.AppendEncode(buf[:0], pk)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode of a Pack into a warm buffer: %v allocs/op, want 0", allocs)
	}
	if !reflect.DeepEqual(buf, want) {
		t.Fatal("reused-buffer encoding differs")
	}
}
