package proto_test

import (
	"bytes"
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
// bundles cleanly, and everything it accepts must re-encode to exactly
// its input and survive a round trip item-for-item. Every input is also decoded into one reused
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
	for _, c := range bundleRefusals {
		f.Add(c.body)
	}
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
		if !bytes.Equal(enc, b) {
			t.Fatalf("bundle accepted from a non-canonical encoding:\n  in:  %x\n  out: %x", b, enc)
		}
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

// seedPack is a representative core pack: the per-destination direct
// payloads of one delivery burst (echoes for several tags plus votes).
func seedPack(t testing.TB) []byte {
	t.Helper()
	b, err := fullCodec().Encode(seedPackValue())
	if err != nil {
		t.Fatalf("seed pack encode: %v", err)
	}
	return b
}

func seedPackValue() proto.Pack {
	mk := func(a uint32) proto.Tag {
		return proto.Tag{
			Proto:   proto.ProtoMW,
			Session: proto.SessionID{Dealer: 2, Kind: proto.KindCoin, Round: 1, Index: 1},
			MW:      proto.MWKey{Dealer: 2, Moderator: 4, Slot: 0},
			Step:    1,
			A:       a,
		}
	}
	return proto.Pack{Items: []sim.Payload{
		rb.Msg{Origin: 1, Tag: mk(1), Value: []byte("a")},
		rb.Msg{Origin: 2, Tag: mk(2), Value: []byte("bb")},
		rb.Msg{Origin: 3, Tag: mk(3), Value: bytes.Repeat([]byte("w"), 128)}, // 2-byte length
		aba.Vote{Step: 1, Round: 2, Value: 1},
	}}
}

// seedNodeFrame is a node runtime frame: a Pack of scope envelopes whose
// inner payloads include a core pack.
func seedNodeFrame(t testing.TB) []byte {
	t.Helper()
	b, err := fullCodec().Encode(proto.Pack{Items: []sim.Payload{
		proto.Scoped{Scope: 7, Inner: seedPackValue()},
		proto.Scoped{Scope: 1 << 20, Inner: aba.Vote{Step: 2, Round: 3, Value: 0}},
		proto.Scoped{Scope: 7, Inner: seedPackValue()},
	}})
	if err != nil {
		t.Fatalf("seed node frame encode: %v", err)
	}
	return b
}

// seedMWFrames are a core pack of MW runs (MWIDLed items delta-coded
// across several groups) and a node frame whose envelopes carry one
// and a bare deal.
func seedMWFrames(t testing.TB) [][]byte {
	t.Helper()
	c := fullCodec()
	run := mwRunPack(40)
	var out [][]byte
	for _, p := range []sim.Payload{run, proto.Pack{Items: []sim.Payload{
		proto.Scoped{Scope: 3, Inner: mwRunPack(12)},
		proto.Scoped{Scope: 3, Inner: run.Items[5].(proto.Marshaler)},
		run.Items[0],
	}}} {
		b, err := c.Encode(p)
		if err != nil {
			t.Fatalf("seed MW frame encode: %v", err)
		}
		out = append(out, b)
	}
	return out
}

// packFrameSeeds are the frame corpus of the Pack fuzzers: a core pack,
// a multi-group pack, a node frame and the MW-run frames with a
// truncation ladder each, the refusals (an empty or one-item counted
// group, adjacent same-kind groups, a nested pack, an absurd group
// count, each non-canonical MWID delta), and a valid payload of every
// layer.
func packFrameSeeds(f *testing.F) [][]byte {
	pack, _ := proto.KindCode(proto.KindPack)
	bval, _ := proto.KindCode(aba.KindBVal)
	var seeds [][]byte
	for _, r := range mwidRefusals {
		seeds = append(seeds, r.frame)
	}
	for _, b := range append([][]byte{seedPack(f), seedBatch(f), seedNodeFrame(f)}, seedMWFrames(f)...) {
		seeds = append(seeds, b)
		for cut := 1; cut < len(b); cut += 11 {
			seeds = append(seeds, b[:cut]) // truncation ladder
		}
	}
	seeds = append(seeds,
		[]byte{pack, 0},                                     // the empty pack
		[]byte{pack, 1, bval | 0x80, 0},                     // an empty group
		[]byte{pack, 1, bval | 0x80, 1, 3, 1, 0, 1},         // a counted group of one
		[]byte{pack, 2, bval, 3, 1, 0, 1, bval, 3, 1, 0, 1}, // adjacent same-kind groups
		[]byte{pack, 1, pack, 2, 0, 0},                      // a nested pack
		[]byte{pack, 0xff, 0xff, 0x01},                      // a group count past the input
	)
	return append(seeds, seedPayloads(f)...)
}

// FuzzPackDecode feeds arbitrary bytes through the full codec — the
// frame surface a Byzantine sender controls, for core packs and node
// frames alike. Decode must never panic and delivers a frame whole or
// not at all: a rejected frame yields no payload. An accepted Pack holds
// no nested Pack, at most one item per input byte, re-encodes to exactly
// its input (so it has no empty group and no two adjacent groups of one
// kind), and no strict prefix of it decodes.
func FuzzPackDecode(f *testing.F) {
	for _, b := range packFrameSeeds(f) {
		f.Add(b)
	}
	c := fullCodec()
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := c.Decode(b)
		if err != nil {
			if p != nil {
				t.Fatalf("rejected frame delivered %T", p)
			}
			return
		}
		pk, ok := p.(proto.Pack)
		if !ok {
			return
		}
		if len(pk.Items) > len(b) {
			t.Fatalf("%d items from %d bytes", len(pk.Items), len(b))
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
		if !bytes.Equal(enc, b) {
			t.Fatalf("pack accepted from a non-canonical encoding:\n  in:  %x\n  out: %x", b, enc)
		}
		for _, cut := range []int{len(b) - 1, len(b) / 2, 1} {
			if cut < 1 || cut >= len(b) {
				continue
			}
			if _, err := c.Decode(b[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes still decoded", cut, len(b))
			}
		}
	})
}
