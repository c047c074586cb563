package proto_test

import (
	"bytes"
	"reflect"
	"testing"

	"svssba/internal/aba"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// seedBundle is a representative wire-v2 bundle body: several logical
// broadcasts of mixed namespaces and value sizes sharing one RB value.
func seedBundle(t testing.TB) []byte {
	t.Helper()
	tags, vals := seedBundleItems()
	return proto.EncodeBundle(tags, vals)
}

func seedBundleItems() ([]proto.Tag, [][]byte) {
	mk := func(ns uint8, step uint8, a uint32) proto.Tag {
		return proto.Tag{
			Proto:   ns,
			Session: proto.SessionID{Dealer: 1, Kind: proto.KindCoin, Round: 3, Index: 2},
			MW:      proto.MWKey{Dealer: 1, Moderator: 3, Slot: 1},
			Step:    step,
			A:       a,
		}
	}
	tags := []proto.Tag{
		mk(proto.ProtoMW, 1, 0),
		mk(proto.ProtoMW, 5, 2),
		mk(proto.ProtoSVSS, 1, 0),
		mk(proto.ProtoCoin, 2, 9),
	}
	vals := [][]byte{{}, []byte("elem"), []byte("g-announce"), bytes.Repeat([]byte{7}, 128)} // 2-byte length
	return tags, vals
}

// FuzzBundleDecode feeds arbitrary bytes to the bundle-body decoder —
// the RB value surface a Byzantine origin controls under wire v2.
// DecodeBundle must never panic, must reject truncations and nested
// bundles cleanly, and everything it accepts must survive a re-encode
// round trip item-for-item. Every input is also decoded into one reused
// buffer holding a sentinel item, as the node decodes accepted bundles:
// the sentinel must survive, an accepted body must append exactly the
// items a nil buffer gets, and a rejected one must leave the buffer's
// length alone.
func FuzzBundleDecode(f *testing.F) {
	seed := seedBundle(f)
	f.Add(seed)
	for cut := 1; cut < len(seed); cut += 5 {
		f.Add(seed[:cut]) // truncation ladder
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	sentinel := proto.BundleItem{Tag: proto.Tag{Proto: proto.ProtoRB, A: 7}, Value: []byte("sentinel")}
	reused := make([]proto.BundleItem, 0, 4)
	f.Fuzz(func(t *testing.T, b []byte) {
		items, err := proto.DecodeBundle(nil, b)
		dst := append(reused[:0], sentinel)
		got, errDst := proto.DecodeBundle(dst, b)
		reused = got[:0]
		if (err == nil) != (errDst == nil) {
			t.Fatalf("nil buffer: err %v; reused buffer: err %v", err, errDst)
		}
		if len(got) == 0 || got[0].Tag != sentinel.Tag || !bytesEq(got[0].Value, sentinel.Value) {
			t.Fatalf("decoding into a reused buffer clobbered its first item")
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("rejected body changed the buffer's length to %d", len(got))
			}
			return
		}
		if len(got) != 1+len(items) {
			t.Fatalf("reused buffer got %d items, nil buffer %d", len(got)-1, len(items))
		}
		for i, it := range items {
			if got[1+i].Tag != it.Tag || !bytesEq(got[1+i].Value, it.Value) {
				t.Fatalf("item %d differs between nil and reused buffers", i)
			}
		}
		for _, it := range items {
			if it.Tag.Proto == proto.ProtoBundle {
				t.Fatalf("decoder accepted a nested bundle tag")
			}
		}
		tags := make([]proto.Tag, len(items))
		vals := make([][]byte, len(items))
		for i, it := range items {
			tags[i], vals[i] = it.Tag, it.Value
		}
		enc := proto.EncodeBundle(tags, vals)
		items2, err := proto.DecodeBundle(nil, enc)
		if err != nil {
			t.Fatalf("accepted bundle does not re-decode: %v", err)
		}
		if len(items2) != len(items) {
			t.Fatalf("round trip changed item count: %d -> %d", len(items), len(items2))
		}
		for i := range items {
			if items[i].Tag != items2[i].Tag || !bytesEq(items[i].Value, items2[i].Value) {
				t.Fatalf("item %d changed across round trip", i)
			}
		}
		// Truncating an accepted body anywhere must error (the decoder
		// requires the count to match and the reader to close clean).
		for _, cut := range []int{len(b) - 1, len(b) / 2, 1} {
			if cut < 1 || cut >= len(b) {
				continue
			}
			if _, err := proto.DecodeBundle(nil, b[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes still decoded", cut)
			}
		}
	})
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedPack is a representative wire-v2 pack: the per-destination direct
// payloads of one delivery burst (echoes for several tags plus votes).
func seedPack(t testing.TB) []byte {
	t.Helper()
	c := fullCodec()
	mk := func(a uint32) proto.Tag {
		return proto.Tag{
			Proto:   proto.ProtoMW,
			Session: proto.SessionID{Dealer: 2, Kind: proto.KindCoin, Round: 1, Index: 1},
			MW:      proto.MWKey{Dealer: 2, Moderator: 4, Slot: 0},
			Step:    1,
			A:       a,
		}
	}
	b, err := c.Encode(proto.Pack{Items: []sim.Payload{
		rb.Msg{Origin: 1, Tag: mk(1), Value: []byte("a")},
		rb.Msg{Origin: 2, Tag: mk(2), Value: []byte("bb")},
		rb.Msg{Origin: 3, Tag: mk(3), Value: bytes.Repeat([]byte("w"), 128)}, // 2-byte length
		aba.Vote{Step: 1, Round: 2, Value: 1},
	}})
	if err != nil {
		t.Fatalf("seed pack encode: %v", err)
	}
	return b
}

// FuzzPackDecode feeds arbitrary bytes through the full codec — the
// frame surface a Byzantine sender controls for wire-v2 direct packs.
// The decoder must never panic, must reject truncations and nested
// packs, and every accepted pack must survive an encode round trip.
func FuzzPackDecode(f *testing.F) {
	seed := seedPack(f)
	f.Add(seed)
	for cut := 1; cut < len(seed); cut += 5 {
		f.Add(seed[:cut]) // truncation ladder
	}
	for _, b := range seedPayloads(f) {
		f.Add(b) // non-pack payloads exercise the kind dispatch
	}
	c := fullCodec()
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := c.Decode(b)
		if err != nil {
			return
		}
		pk, ok := p.(proto.Pack)
		if !ok {
			return
		}
		for _, it := range pk.Items {
			if _, nested := it.(proto.Pack); nested {
				t.Fatalf("decoder accepted a nested pack")
			}
		}
		enc, err := c.Encode(pk)
		if err != nil {
			t.Fatalf("accepted pack does not re-encode: %v", err)
		}
		p2, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded pack does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("pack changed across round trip:\n  first:  %#v\n  second: %#v", p, p2)
		}
	})
}
