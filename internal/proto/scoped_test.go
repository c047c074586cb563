package proto_test

import (
	"bytes"
	"reflect"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// scopedInner is a representative payload to ride inside the envelope.
func scopedInner() rb.Msg {
	return rb.Msg{
		Origin: 3,
		Tag:    proto.Tag{Proto: proto.ProtoRB, A: 12},
		Value:  []byte("payload"),
	}
}

// TestScopedRoundTrip pins the envelope's two-form contract: encoding
// the outbound form (Inner set) and decoding yields the inbound form
// (Raw set, inner still encoded), and decoding Raw recovers the inner
// payload exactly.
func TestScopedRoundTrip(t *testing.T) {
	c := fullCodec()
	for _, scope := range []uint64{0, 1, 0x7F, 0x80, 1<<32 | 7, ^uint64(0)} {
		in := proto.Scoped{Scope: scope, Inner: scopedInner()}
		b, err := c.Encode(in)
		if err != nil {
			t.Fatalf("scope %d: encode: %v", scope, err)
		}
		p, err := c.Decode(b)
		if err != nil {
			t.Fatalf("scope %d: decode: %v", scope, err)
		}
		out, ok := p.(proto.Scoped)
		if !ok {
			t.Fatalf("scope %d: decoded %T, want Scoped", scope, p)
		}
		if out.Scope != scope {
			t.Fatalf("scope %d: round-tripped to %d", scope, out.Scope)
		}
		if out.Inner != nil {
			t.Fatalf("scope %d: inbound form has live Inner", scope)
		}
		inner, err := c.Decode(out.Raw)
		if err != nil {
			t.Fatalf("scope %d: inner decode: %v", scope, err)
		}
		if !reflect.DeepEqual(inner, scopedInner()) {
			t.Fatalf("scope %d: inner = %+v, want %+v", scope, inner, scopedInner())
		}
	}
}

// TestScopedSizeMatchesEncoding pins Size() to the marshaled byte count
// for both forms — the batch writer trusts Size() when pre-sizing and
// verifying group bodies.
func TestScopedSizeMatchesEncoding(t *testing.T) {
	c := fullCodec()
	out := proto.Scoped{Scope: 1 << 42, Inner: scopedInner()}
	var w proto.Writer
	out.MarshalTo(&w)
	if w.Len() != out.Size() {
		t.Fatalf("outbound form: marshaled %d bytes, Size()=%d", w.Len(), out.Size())
	}

	b, err := c.Encode(out)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	in := p.(proto.Scoped)
	var w2 proto.Writer
	in.MarshalTo(&w2)
	if w2.Len() != in.Size() {
		t.Fatalf("inbound form: marshaled %d bytes, Size()=%d", w2.Len(), in.Size())
	}
	// Re-encoding the inbound form reproduces the outbound bytes — a
	// relay can forward an envelope without decoding its body.
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatal("inbound re-encoding differs from outbound encoding")
	}
}

// TestScopedDecodeRejectsEmptyBody pins the envelope decoder's guard: a
// scope with no inner bytes is corrupt, not an empty delivery.
func TestScopedDecodeRejectsEmptyBody(t *testing.T) {
	c := fullCodec()
	var w proto.Writer
	w.U16(uint16(len(proto.KindScoped)))
	for _, ch := range []byte(proto.KindScoped) {
		w.U8(ch)
	}
	w.Uvarint(9)
	if _, err := c.Decode(w.Bytes()); err == nil {
		t.Fatal("empty-body envelope decoded")
	}
}

// TestScopedDecodeTruncated walks every proper prefix of a valid
// envelope frame: each must fail cleanly (the kind header or the scope
// uvarint goes short) — except prefixes that still hold a nonempty
// body, which decode shallowly by design; the inner decode is where
// such truncation surfaces, and it must error there.
func TestScopedDecodeTruncated(t *testing.T) {
	c := fullCodec()
	b, err := c.Encode(proto.Scoped{Scope: 1 << 21, Inner: scopedInner()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b); i++ {
		p, err := c.Decode(b[:i])
		if err != nil {
			continue
		}
		sc, ok := p.(proto.Scoped)
		if !ok {
			t.Fatalf("prefix %d: decoded %T", i, p)
		}
		if _, err := c.Decode(sc.Raw); err == nil {
			t.Fatalf("prefix %d: truncated inner decoded", i)
		}
	}
}

// TestScopedBatchRoundTrip packs envelopes for several scopes into one
// Pack frame — the exact wire shape service-mode coalescing produces —
// and checks each comes back under its own scope with its own body.
func TestScopedBatchRoundTrip(t *testing.T) {
	c := fullCodec()
	scopes := []uint64{1, 2, 1 << 40}
	var ps []sim.Payload
	for _, s := range scopes {
		ps = append(ps, proto.Scoped{Scope: s, Inner: rb.Msg{
			Origin: sim.ProcID(s % 7),
			Tag:    proto.Tag{Proto: proto.ProtoRB, A: uint32(s)},
			Value:  []byte{byte(s)},
		}})
	}
	got := packItems(t, c, packFrame(t, c, ps))
	if len(got) != len(ps) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(ps))
	}
	for i, p := range got {
		sc, ok := p.(proto.Scoped)
		if !ok {
			t.Fatalf("payload %d: %T", i, p)
		}
		if sc.Scope != scopes[i] {
			t.Fatalf("payload %d: scope %d, want %d", i, sc.Scope, scopes[i])
		}
		inner, err := c.Decode(sc.Raw)
		if err != nil {
			t.Fatalf("payload %d: inner decode: %v", i, err)
		}
		want := ps[i].(proto.Scoped).Inner
		if !reflect.DeepEqual(inner, want) {
			t.Fatalf("payload %d: inner = %+v, want %+v", i, inner, want)
		}
	}
}

// FuzzScopedDecode feeds arbitrary bytes through the envelope decoder
// and, when the shallow decode passes, through the inner decode — the
// exact two-step path a Byzantine sender reaches in service mode.
func FuzzScopedDecode(f *testing.F) {
	c := fullCodec()
	if seed, err := c.Encode(proto.Scoped{Scope: 99, Inner: scopedInner()}); err == nil {
		f.Add(seed)
	}
	sess, _ := proto.KindCode(proto.KindScoped)
	f.Add([]byte{sess, 0x01}) // scope 1, empty body
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := c.Decode(data)
		if err != nil {
			return
		}
		sc, ok := p.(proto.Scoped)
		if !ok {
			return
		}
		if len(sc.Raw) == 0 {
			t.Fatal("decoder admitted an empty body")
		}
		_, _ = c.Decode(sc.Raw)
	})
}
