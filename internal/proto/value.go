package proto

import "svssba/internal/sim"

// KindValue is the payload kind of an ACS proposal value.
const KindValue = "acs/value"

// Value carries one ACS proposal (internal/acs, proposal plane): the
// bytes proposer Origin put up for the session its scope envelope names.
// From the origin itself it is the proposal's one trip over that link;
// from anyone else it is a forward, which a receiver only ever treats as
// a candidate to check against the RB-accepted digest. The type lives
// here rather than in acs because core.NewCodec registers every kind
// the service puts on the wire, and acs imports core.
type Value struct {
	Origin sim.ProcID
	Value  []byte
}

var _ Marshaler = Value{}

// Kind implements sim.Payload.
func (Value) Kind() string { return KindValue }

// Size implements sim.Payload.
func (v Value) Size() int { return 2 + VarBytesSize(len(v.Value)) }

// MarshalTo implements Marshaler.
func (v Value) MarshalTo(w *Writer) {
	w.Proc(v.Origin)
	w.VarBytes(v.Value)
}

// RegisterValueCodec registers the proposal value decoder on c. The
// decoded Value aliases the frame buffer (see Reader.VarBytes); acs
// copies it out once, and only if it keeps it.
func RegisterValueCodec(c *Codec) {
	c.Register(KindValue, func(r *Reader) (sim.Payload, error) {
		var v Value
		v.Origin = r.Proc()
		v.Value = r.VarBytes()
		return v, r.Err()
	})
}
