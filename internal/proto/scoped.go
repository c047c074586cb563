package proto

import (
	"fmt"

	"svssba/internal/sim"
)

// KindScoped is the payload kind of the session-scope envelope. The
// kind string is deliberately short: in service mode every payload on
// the wire wears it.
const KindScoped = "sess"

// Scoped wraps one protocol payload with the service scope that owns
// it. The multi-session node runtime (internal/node service mode) runs
// one protocol stack per scope over a single transport; the envelope is
// what routes an inbound payload to the right stack and lets payloads
// from many concurrent sessions share one coalesced batch frame.
//
// A Scoped has two forms:
//
//   - Outbound: Inner holds the live payload; encoding writes the scope
//     followed by the inner payload's own single-payload frame (kind
//     code included).
//   - Inbound: decoding stops at the envelope — Raw holds the inner
//     payload still encoded. The node decodes Raw only after checking
//     that the scope is live, so traffic for a retired session is
//     dropped without paying for (or being exposed to) the inner
//     decode.
//
// The wire form is: uvarint scope, then the inner frame (u8 kind code
// ++ body) as the remainder of the buffer (no length prefix — the
// envelope is always the outermost layer of a frame or batch element,
// so the tail is unambiguous). Nested envelopes are rejected by the
// node on delivery.
type Scoped struct {
	Scope uint64
	Inner Marshaler
	Raw   []byte
}

var _ Marshaler = Scoped{}

// Kind implements sim.Payload.
func (Scoped) Kind() string { return KindScoped }

// Size implements sim.Payload.
func (s Scoped) Size() int {
	if s.Inner != nil {
		return UvarintSize(s.Scope) + FrameSize(s.Inner)
	}
	return UvarintSize(s.Scope) + len(s.Raw)
}

// MarshalTo implements proto.Marshaler.
func (s Scoped) MarshalTo(w *Writer) {
	w.Uvarint(s.Scope)
	if s.Inner != nil {
		code, _ := KindCode(s.Inner.Kind()) // 0 (undecodable) for a kind off the table
		w.U8(code)
		s.Inner.MarshalTo(w)
		return
	}
	w.buf = append(w.buf, s.Raw...)
}

// TakeRest consumes and returns all unread bytes. The returned slice
// aliases the reader's buffer.
func (r *Reader) TakeRest() []byte { return r.take(r.Remaining()) }

// RegisterScopedCodec registers the envelope decoder on c. Decoding is
// shallow on purpose (see Scoped): the inner payload stays encoded in
// Raw until the consumer decides the scope deserves the inner decode.
func RegisterScopedCodec(c *Codec) {
	c.Register(KindScoped, func(r *Reader) (sim.Payload, error) {
		s := Scoped{Scope: r.Uvarint()}
		s.Raw = r.TakeRest()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(s.Raw) == 0 {
			return nil, fmt.Errorf("scoped envelope %d with empty body", s.Scope)
		}
		return s, nil
	})
}
