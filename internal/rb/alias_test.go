package rb_test

// Aliasing contract of the zero-copy receive path: a decoded Msg.Value
// aliases the inbound frame buffer (proto.Reader.VarBytes no longer
// copies), which is safe because inbound frame buffers are immutable by
// the transport contract — and anything the engine retains past the
// delivery must be detached with an explicit copy.

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// dropCtx is a sim.Context that discards sends.
type dropCtx struct{ n, t int }

func (dropCtx) Send(sim.ProcID, sim.Payload) {}
func (c dropCtx) N() int                     { return c.n }
func (c dropCtx) T() int                     { return c.t }
func (dropCtx) Now() int64                   { return 0 }
func (dropCtx) Rand() *rand.Rand             { return rand.New(rand.NewSource(1)) }

// TestMsgDecodeAliasesFrame pins that decoding is zero-copy: mutating
// the frame buffer after the decode must show through the decoded
// value. If this test fails because the value stopped following the
// buffer, the hot path regressed to copying — delete the test only
// with a measured justification.
func TestMsgDecodeAliasesFrame(t *testing.T) {
	codec := core.NewCodec()
	orig := rb.Msg{Origin: 3, Tag: proto.Tag{Proto: proto.ProtoRB}, Value: []byte("zero-copy-value")}
	enc, err := codec.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codec.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := p.(rb.Msg)
	if !ok {
		t.Fatalf("decoded %T, want rb.Msg", p)
	}
	if !bytes.Equal(m.Value, orig.Value) {
		t.Fatalf("decoded value %q != %q", m.Value, orig.Value)
	}
	for i := range enc {
		enc[i] ^= 0xff
	}
	if bytes.Equal(m.Value, orig.Value) {
		t.Fatal("decoded value survived frame mutation; decode copies instead of aliasing")
	}
}

// TestAcceptValueDetached drives one RB instance to acceptance with
// values aliasing per-delivery buffers that are mutated after each
// handled message — the worst legal case under the zero-copy decode.
// The accepted value must come out intact: the engine owns (copies)
// what it hands to onAccept.
func TestAcceptValueDetached(t *testing.T) {
	const n, tt = 4, 1
	var got []byte
	e := rb.New(1, func(_ sim.Context, a rb.Accept) { got = append([]byte(nil), a.Value...) })
	var ctx sim.Context = dropCtx{n: n, t: tt}

	want := []byte("detached-accept-value")
	tag := proto.Tag{Proto: proto.ProtoRB, Step: 1, A: 9}
	// n−t = 3 echoes from distinct peers accept the value. Each delivery
	// uses its own buffer, scribbled over right after the handler runs —
	// the frame's lifetime ends when the delivery returns.
	for from := sim.ProcID(2); from <= 4; from++ {
		buf := append([]byte(nil), want...)
		m := rb.Msg{Origin: 2, Tag: tag, Value: buf}
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: m})
		for i := range buf {
			buf[i] = 0xee
		}
	}
	if got == nil {
		t.Fatal("value never accepted")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("accepted value corrupted by post-delivery buffer reuse: %q", got)
	}
}

// TestWeakPhaseSendsDetached drives the WRB phase with type 1 and
// type 2 deliveries whose buffers are scribbled over after each Handle.
// The type 3 sent at WRB acceptance, the push at delivery and the
// accepted value must still carry the right bytes: what the engine
// sends after the delivery returns is its own copy. Cases: an inline
// value, and a bundle body echoed by digest.
func TestWeakPhaseSendsDetached(t *testing.T) {
	const n, tt = 7, 2
	for _, tc := range []struct {
		name   string
		tag    proto.Tag
		body   []byte
		pushes int // only a digest instance pushes
	}{
		{"inline", proto.Tag{Proto: proto.ProtoRB, Step: 1, A: 9}, []byte("inline-value"), 0},
		{"digest", proto.Tag{Proto: proto.ProtoBundle, A: 9}, bytes.Repeat([]byte("bundle-body-"), 8), 2},
	} {
		echo := tc.body
		if len(tc.body) >= proto.BundleDigestSize {
			sum := sha256.Sum256(tc.body)
			echo = sum[:]
		}
		var got []byte
		e := rb.New(1, func(_ sim.Context, a rb.Accept) { got = append([]byte(nil), a.Value...) })
		ctx := testutil.NewCtx(1, n, tt)
		deliver := func(from sim.ProcID, p sim.Payload, buf []byte) {
			e.Handle(ctx, sim.Message{From: from, To: 1, Payload: p})
			for i := range buf {
				buf[i] = 0xee
			}
		}
		weak := func(from sim.ProcID, phase uint8, v []byte) {
			buf := append([]byte(nil), v...)
			deliver(from, rb.WeakMsg{Origin: 3, Tag: tc.tag, Phase: phase, Value: buf}, buf)
		}
		weak(3, rb.Type1, tc.body)
		ctx.Drain()
		// n−t type 2s WRB-accept; peers 6 and 7 send none, so a digest
		// instance pushes to them.
		for from := sim.ProcID(1); from <= n-tt; from++ {
			weak(from, rb.Type2, echo)
		}
		type3 := ctx.Drain()
		if len(type3) != n {
			t.Fatalf("%s: %d sends at WRB acceptance, want %d type 3s", tc.name, len(type3), n)
		}
		for from := sim.ProcID(1); from <= n-tt; from++ {
			buf := append([]byte(nil), echo...)
			deliver(from, rb.Msg{Origin: 3, Tag: tc.tag, Value: buf}, buf)
		}
		for _, m := range type3 {
			if v := m.Payload.(rb.Msg).Value; !bytes.Equal(v, echo) {
				t.Fatalf("%s: type 3 carries %q, want %q", tc.name, v, echo)
			}
		}
		pushes := 0
		for _, m := range ctx.Drain() {
			if w, ok := m.Payload.(rb.WeakMsg); ok && w.Phase == rb.Type1 {
				pushes++
				if !bytes.Equal(w.Value, tc.body) {
					t.Fatalf("%s: push carries %q, want the body", tc.name, w.Value)
				}
			}
		}
		if pushes != tc.pushes {
			t.Fatalf("%s: %d pushes, want %d", tc.name, pushes, tc.pushes)
		}
		if !bytes.Equal(got, tc.body) {
			t.Fatalf("%s: accepted %q, want the body", tc.name, got)
		}
	}
}
