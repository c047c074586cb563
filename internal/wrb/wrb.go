// Package wrb implements t-tolerant Weak Reliable Broadcast — Dolev's
// crusader agreement — exactly as specified in Appendix A.1 of the paper:
//
//  1. The dealer sends (s, 1) to all processes.
//  2. If process i receives a type 1 message (r, 1) from the dealer and it
//     never sent a type 2 message, then process i sends (r, 2) to all.
//  3. If process i receives n−t distinct type 2 messages (r, 2), all with
//     value r, then it accepts the value r.
//
// Properties (for n > 3t): weak termination (nonfaulty dealer ⇒ everyone
// completes) and correctness (no two nonfaulty processes accept different
// values; a nonfaulty dealer's value is the only acceptable one).
//
// Instances are identified by (origin, tag); values are opaque byte
// strings whose equality is the paper's value equality.
//
// Representation: instance keys — (origin, tag) packed into four words,
// proto.PackTag — are interned to dense ids and instances live in a
// per-engine slab indexed by id, with the per-sender vote set a bitset
// and the per-value tally an inline counter (intern package). One
// delivery costs one key lookup plus word-sized bit arithmetic — no
// per-instance map writes and no warm-path allocation. A message whose
// (origin, tag) does not pack (a process id outside the wire's 16 bits)
// is dropped rather than merged into another instance.
package wrb

import (
	"fmt"

	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Message phases.
const (
	phaseType1 uint8 = 1
	phaseType2 uint8 = 2
)

// Payload kinds.
const (
	KindType1 = "wrb/type1"
	KindType2 = "wrb/type2"
)

// Msg is a WRB protocol message.
type Msg struct {
	Origin sim.ProcID
	Tag    proto.Tag
	Phase  uint8
	Value  []byte
}

var _ proto.Marshaler = Msg{}

// Kind implements sim.Payload.
func (m Msg) Kind() string {
	if m.Phase == phaseType1 {
		return KindType1
	}
	return KindType2
}

// Size implements sim.Payload.
func (m Msg) Size() int {
	return 2 + m.Tag.Size() + 1 + proto.VarBytesSize(len(m.Value))
}

// MarshalTo implements proto.Marshaler.
func (m Msg) MarshalTo(w *proto.Writer) {
	w.Proc(m.Origin)
	m.Tag.MarshalTo(w)
	w.U8(m.Phase)
	w.VarBytes(m.Value)
}

// decoder decodes a message of the given phase. The phase byte must
// match the kind code it arrived under: a message is never re-kinded by
// its body.
func decoder(phase uint8) proto.DecodeFunc {
	return func(r *proto.Reader) (sim.Payload, error) {
		var m Msg
		m.Origin = r.Proc()
		m.Tag = proto.ReadTag(r)
		m.Phase = r.U8()
		m.Value = r.VarBytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m.Phase != phase {
			return nil, fmt.Errorf("wrb: phase %d under phase-%d kind", m.Phase, phase)
		}
		return m, nil
	}
}

// RegisterCodec registers WRB message decoding.
func RegisterCodec(c *proto.Codec) {
	c.Register(KindType1, decoder(phaseType1))
	c.Register(KindType2, decoder(phaseType2))
}

// Accept is the output event of one WRB instance.
type Accept struct {
	Origin sim.ProcID
	Tag    proto.Tag
	Value  []byte
}

// AcceptFunc consumes accept events; it runs inside the delivering
// process's context and may send messages.
type AcceptFunc func(ctx sim.Context, a Accept)

type instance struct {
	sentType2 bool
	accepted  bool
	voted     intern.ProcSet   // senders whose type-2 was counted
	counts    intern.ValCounts // value -> distinct type-2 count
}

// Engine runs all WRB instances for one process. Instances are
// slab-allocated: the key table interns (origin, tag) to a dense id
// indexing insts.
type Engine struct {
	self     sim.ProcID
	onAccept AcceptFunc
	table    intern.Table[proto.PackedTag]
	insts    []instance
}

// New returns a WRB engine for process self.
func New(self sim.ProcID, onAccept AcceptFunc) *Engine {
	return &Engine{self: self, onAccept: onAccept}
}

// Broadcast starts a WRB instance with this process as dealer (step 1).
func (e *Engine) Broadcast(ctx sim.Context, tag proto.Tag, value []byte) {
	// Box the payload once for all n sends (see rb.sendType3).
	var pl sim.Payload = Msg{Origin: e.self, Tag: tag, Phase: phaseType1, Value: value}
	for p := 1; p <= ctx.N(); p++ {
		ctx.Send(sim.ProcID(p), pl)
	}
}

// inst returns the slab id for k, growing the slab for a fresh id.
// Callers index e.insts with the returned id; the pointer must not be
// held across anything that could intern another instance.
func (e *Engine) inst(k proto.PackedTag) uint32 {
	id, fresh := e.table.Intern(k)
	if int(id) >= len(e.insts) {
		e.insts = append(e.insts, instance{})
	} else if fresh {
		e.insts[id] = instance{}
	}
	return id
}

// Live returns the number of live instances (for retirement tests).
func (e *Engine) Live() int { return e.table.Len() }

// SlabCap returns the instance slab's high-water slot count.
func (e *Engine) SlabCap() int { return e.table.HighWater() }

// Created returns the cumulative number of WRB instances ever created.
func (e *Engine) Created() uint64 { return e.table.Created() }

// Reset releases every instance and its interned id, keeping allocated
// capacity. Used when the owning stack retires (the agreement decided
// and halted) and by benchmarks to recycle slots.
func (e *Engine) Reset() {
	for i := range e.insts {
		e.insts[i] = instance{}
	}
	e.insts = e.insts[:0]
	e.table.Reset()
}

// Handle processes a message if it belongs to WRB, reporting whether it
// was consumed.
func (e *Engine) Handle(ctx sim.Context, m sim.Message) bool {
	msg, ok := m.Payload.(Msg)
	if !ok {
		return false
	}
	k, ok := proto.PackTag(msg.Origin, msg.Tag)
	if !ok {
		return true
	}
	in := &e.insts[e.inst(k)]
	switch msg.Phase {
	case phaseType1:
		// Step 2: the type 1 message must come from the instance dealer.
		if m.From != msg.Origin || in.sentType2 {
			return true
		}
		in.sentType2 = true
		var echo sim.Payload = Msg{Origin: msg.Origin, Tag: msg.Tag, Phase: phaseType2, Value: msg.Value}
		for p := 1; p <= ctx.N(); p++ {
			ctx.Send(sim.ProcID(p), echo)
		}
	case phaseType2:
		// Echo pruning: an accepted instance can neither accept again nor
		// send anything in response to a type 2, so the remaining echoes
		// of the storm (up to t per instance) skip the vote and count
		// state entirely. The type 1 branch above stays live — a slow
		// process must still echo the dealer's value so its peers can
		// reach their own n−t thresholds (suppressing the echo of an
		// already-accepted process would strand peers at n−t−1 matching
		// echoes when exactly n−t processes are honest).
		if in.accepted {
			return true
		}
		// Step 3: count the first type 2 from each sender.
		if !in.voted.Add(m.From) {
			return true
		}
		if in.counts.Incr(msg.Value) >= ctx.N()-ctx.T() {
			in.accepted = true
			v := append([]byte(nil), msg.Value...)
			// Dead from here on (see pruning note); drop the retained
			// value copies so the per-instance footprint stays bounded
			// across millions of broadcasts.
			in.voted.Clear()
			in.counts.Reset()
			if e.onAccept != nil {
				e.onAccept(ctx, Accept{Origin: msg.Origin, Tag: msg.Tag, Value: v})
			}
		}
	}
	return true
}
