package proto_test

import (
	"bytes"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// marshalTag encodes a tag and sanity-checks the size contract.
func marshalTag(t *testing.T, tag proto.Tag) []byte {
	t.Helper()
	var w proto.Writer
	tag.MarshalTo(&w)
	if w.Len() != tag.Size() {
		t.Fatalf("encoded size %d, want Size() %d", w.Len(), tag.Size())
	}
	return w.Bytes()
}

// FuzzTagRoundTrip drives the session/tag identifier layer from
// structured inputs: any Tag — any SessionID (dealer, kind, round,
// index), any MWKey, any step and parameter — must marshal to exactly
// Size() bytes, read back equal, and fail cleanly on every truncation
// of its encoding. This mirrors the codec fuzzers one layer down: tags
// are what the DMM layer routes on, so a Byzantine sender must not be
// able to confuse ReadTag.
func FuzzTagRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint8(1), uint64(0), uint32(0), uint16(0), uint16(0), uint8(0), uint32(0))
	f.Add(uint8(proto.ProtoMW), uint16(2), uint8(proto.KindCoin), uint64(7), uint32(3),
		uint16(2), uint16(1), uint8(4), uint32(9))
	f.Add(uint8(255), uint16(65535), uint8(255), ^uint64(0), ^uint32(0),
		uint16(65535), uint16(65535), uint8(255), ^uint32(0))
	f.Fuzz(func(t *testing.T, protoNS uint8, dealer uint16, kind uint8, round uint64, index uint32,
		mwDealer, mwModerator uint16, step uint8, a uint32) {
		tag := proto.Tag{
			Proto: protoNS,
			Session: proto.SessionID{
				Dealer: sim.ProcID(dealer),
				Kind:   proto.SessionKind(kind),
				Round:  round,
				Index:  index,
			},
			MW: proto.MWKey{
				Dealer:    sim.ProcID(mwDealer),
				Moderator: sim.ProcID(mwModerator),
			},
			Step: step,
			A:    a,
		}
		enc := marshalTag(t, tag)

		r := proto.NewReader(enc)
		got := proto.ReadTag(r)
		if err := r.Close(); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if got != tag {
			t.Fatalf("round trip changed tag:\n  in:  %+v\n  out: %+v", tag, got)
		}

		// Every truncation must surface ErrShortBuffer via the sticky
		// reader error — never panic, never read out of bounds.
		for cut := 0; cut < len(enc); cut++ {
			tr := proto.NewReader(enc[:cut])
			_ = proto.ReadTag(tr)
			if tr.Err() == nil {
				t.Fatalf("truncated tag of %d bytes decoded cleanly", cut)
			}
		}
	})
}

// FuzzReadTag feeds arbitrary bytes to ReadTag: it must never panic,
// and any input it fully consumes must re-marshal byte-identically
// (the identifier layer has no unused encoding space).
func FuzzReadTag(f *testing.F) {
	var w proto.Writer
	proto.Tag{
		Proto:   proto.ProtoSVSS,
		Session: proto.SessionID{Dealer: 3, Kind: proto.KindApp, Round: 1, Index: 2},
		MW:      proto.MWKey{Dealer: 1, Moderator: 2},
		Step:    2,
		A:       5,
	}.MarshalTo(&w)
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{proto.ProtoACS, 0x00})                   // Proto only
	f.Add([]byte{proto.ProtoACS, 0x02, 0x07})             // only A
	f.Add([]byte{proto.ProtoACS, 0x80, 0x02, 0x07})       // retired slot bit
	f.Add([]byte{proto.ProtoACS, 0x80, 0x82, 0x00, 1})    // overlong mask
	f.Add([]byte{proto.ProtoACS, 0x01, 0x00})             // set bit, zero value
	f.Add([]byte{proto.ProtoACS, 0x01, 0xff, 0xff, 0x04}) // dealer wider than 16 bits
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, b []byte) {
		r := proto.NewReader(b)
		tag := proto.ReadTag(r)
		if r.Err() != nil {
			return
		}
		if r.Remaining() > 0 {
			// ReadTag consumes the tag's own prefix; trailing bytes
			// belong to the caller (tags are embedded in larger
			// messages).
			b = b[:len(b)-r.Remaining()]
		}
		var w proto.Writer
		tag.MarshalTo(&w)
		if !bytes.Equal(w.Bytes(), b) {
			t.Fatalf("re-marshal differs:\n  in:  %x\n  out: %x", b, w.Bytes())
		}
	})
}
