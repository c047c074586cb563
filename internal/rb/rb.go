// Package rb implements t-tolerant Reliable Broadcast — Bracha's echo
// broadcast — exactly as specified in Appendix A.2 of the paper:
//
//  1. The dealer sends (s, 1) to all processes using Weak Reliable
//     Broadcast (WRB).
//  2. If process i accepts message r from the dealer using WRB, then
//     process i sends (r, 3) to all processes.
//  3. If process i receives at least t+1 distinct type 3 messages with the
//     same value r, then process i sends (r, 3) to all processes.
//  4. If process i receives at least n−t distinct type 3 messages with the
//     same value r, then it accepts the value r.
//
// Properties (n > 3t): weak termination and correctness inherited from
// WRB, plus Termination — if some nonfaulty process completes the
// protocol, then all nonfaulty processes eventually complete it.
//
// Every "X broadcasts m using RB" step of the MW-SVSS, SVSS, coin and
// agreement protocols runs through an Engine instance of this package.
//
// Echo traffic dominates the whole stack's message count (one broadcast
// costs n type 1 + n² type 2 + n² type 3 messages), so the send path is
// built to batch: echoes for many concurrent tags and sessions produced
// within one delivery step are coalesced per destination and cross the
// wire aggregated behind a single kind header (proto batch frames —
// see internal/proto and the node runtime's outbox). Instances also
// prune: once a process accepts, the remaining echoes of the storm are
// dropped on arrival and the instance's vote state is released.
package rb

import (
	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/wrb"
)

// KindType3 is the payload kind of the echo message.
const KindType3 = "rb/type3"

// Msg is the RB type 3 (echo) message; types 1 and 2 belong to WRB.
type Msg struct {
	Origin sim.ProcID
	Tag    proto.Tag
	Value  []byte
}

var _ proto.Marshaler = Msg{}

// Kind implements sim.Payload.
func (m Msg) Kind() string { return KindType3 }

// Size implements sim.Payload.
func (m Msg) Size() int {
	return 2 + m.Tag.Size() + proto.VarBytesSize(len(m.Value))
}

// MarshalTo implements proto.Marshaler.
func (m Msg) MarshalTo(w *proto.Writer) {
	w.Proc(m.Origin)
	m.Tag.MarshalTo(w)
	w.VarBytes(m.Value)
}

func decodeMsg(r *proto.Reader) (sim.Payload, error) {
	var m Msg
	m.Origin = r.Proc()
	m.Tag = proto.ReadTag(r)
	m.Value = r.VarBytes()
	return m, r.Err()
}

// RegisterCodec registers RB and WRB message decoding.
func RegisterCodec(c *proto.Codec) {
	wrb.RegisterCodec(c)
	c.Register(KindType3, decodeMsg)
}

// Accept is the output event of one RB instance: origin RB-broadcast
// value under tag, and this process accepted it.
type Accept struct {
	Origin sim.ProcID
	Tag    proto.Tag
	Value  []byte
}

// AcceptFunc consumes accept events.
type AcceptFunc func(ctx sim.Context, a Accept)

type instance struct {
	sentType3 bool
	accepted  bool
	voted     intern.ProcSet
	counts    intern.ValCounts
}

// Engine runs all RB instances for one process. Instances are
// slab-allocated: the key table interns the packed (origin, tag) to a
// dense id indexing insts, so one delivery costs one key lookup plus
// bitset and inline-counter updates — no per-instance maps (see
// internal/intern). A message whose (origin, tag) does not pack (a
// process id outside the wire's 16 bits) is dropped: it names no
// instance any peer could share.
type Engine struct {
	self  sim.ProcID
	weak  *wrb.Engine
	table intern.Table[proto.PackedTag]
	insts []instance

	// accepted mirrors the instances' accepted flags indexed by slab id,
	// so the echo-storm tail (every echo arriving after acceptance) is
	// dropped on a table lookup plus one bit test, without touching the
	// intern write path or the instance slab.
	accepted intern.Bits

	onAccept AcceptFunc
}

// New returns an RB engine for process self delivering accepts to
// onAccept.
func New(self sim.ProcID, onAccept AcceptFunc) *Engine {
	e := &Engine{self: self, onAccept: onAccept}
	e.weak = wrb.New(self, e.onWRBAccept)
	return e
}

// Broadcast reliably broadcasts value under tag with this process as
// dealer (step 1: WRB the value).
func (e *Engine) Broadcast(ctx sim.Context, tag proto.Tag, value []byte) {
	e.weak.Broadcast(ctx, tag, value)
}

// inst returns the slab id for k, growing the slab for a fresh id.
func (e *Engine) inst(k proto.PackedTag) uint32 {
	id, fresh := e.table.Intern(k)
	if int(id) >= len(e.insts) {
		e.insts = append(e.insts, instance{})
	} else if fresh {
		e.insts[id] = instance{}
		e.accepted.Remove(int(id)) // recycled slot: drop the old occupant's bit
	}
	return id
}

// Created returns the cumulative number of RB instances ever created.
func (e *Engine) Created() uint64 { return e.table.Created() }

// Live returns the number of live RB instances (retirement tests).
func (e *Engine) Live() int { return e.table.Len() }

// SlabCap returns the instance slab's high-water slot count.
func (e *Engine) SlabCap() int { return e.table.HighWater() }

// Weak exposes the inner WRB engine (for state accounting).
func (e *Engine) Weak() *wrb.Engine { return e.weak }

// Reset releases every RB and WRB instance and their interned ids,
// keeping allocated capacity. Used when the owning stack retires and by
// benchmarks to recycle slots.
func (e *Engine) Reset() {
	for i := range e.insts {
		e.insts[i] = instance{}
	}
	e.insts = e.insts[:0]
	e.accepted.Clear()
	e.table.Reset()
	e.weak.Reset()
}

// onWRBAccept is step 2: echo the WRB-accepted value as type 3.
func (e *Engine) onWRBAccept(ctx sim.Context, a wrb.Accept) {
	k, ok := proto.PackTag(a.Origin, a.Tag)
	if !ok {
		return // unreachable: WRB accepts only what it could pack
	}
	in := &e.insts[e.inst(k)]
	e.sendType3(ctx, in, a.Origin, a.Tag, a.Value)
}

func (e *Engine) sendType3(ctx sim.Context, in *instance, origin sim.ProcID, tag proto.Tag, value []byte) {
	if in.sentType3 {
		return
	}
	in.sentType3 = true
	// Box the payload once: n sends of the same echo otherwise cost n
	// interface-conversion allocations on the hottest send path.
	var pl sim.Payload = Msg{Origin: origin, Tag: tag, Value: value}
	for p := 1; p <= ctx.N(); p++ {
		ctx.Send(sim.ProcID(p), pl)
	}
}

// Handle processes a message if it belongs to RB or its WRB subroutine,
// reporting whether it was consumed.
func (e *Engine) Handle(ctx sim.Context, m sim.Message) bool {
	if e.weak.Handle(ctx, m) {
		return true
	}
	msg, ok := m.Payload.(Msg)
	if !ok {
		return false
	}
	k, ok := proto.PackTag(msg.Origin, msg.Tag)
	if !ok {
		return true
	}
	// Fast accepted drop: the post-acceptance tail of an echo storm is
	// the hottest delivery class, so it exits on one lookup (usually the
	// table's one-slot cache) and one bit test — before the interning
	// write path below.
	if id := e.table.Lookup(k); id != intern.NoID && e.accepted.Has(int(id)) {
		return true
	}
	id := e.inst(k)
	in := &e.insts[id]
	// Echo pruning: once n−t matching echoes are recorded the instance
	// has accepted, and acceptance implies the t+1 amplification (step 3)
	// already sent our echo — t+1 ≤ n−t for n > 3t, so the send trigger
	// fires strictly before the accept trigger. Every later echo is
	// therefore inert: it can neither cause a send (sentType3 holds) nor
	// a second accept, so it is dropped before touching the vote and
	// count state. This bounds per-instance state and makes the tail of
	// each echo storm (the last t of n echoes) O(1) per delivery.
	//
	// Note what is deliberately NOT pruned: the echo *send* itself. With
	// exactly n−t honest processes, suppressing a process's own echo
	// because it already recorded n−t (up to t of them from faulty
	// processes that stay silent toward everyone else) would leave its
	// peers stuck at n−t−1 matching echoes forever, violating RB
	// Termination. The paper's amplification rule is the termination
	// mechanism, so every process still echoes exactly once.
	if in.accepted {
		return true
	}
	if !in.voted.Add(m.From) {
		return true
	}
	c := in.counts.Incr(msg.Value)
	// Step 3: amplify after t+1 matching echoes.
	if c >= ctx.T()+1 {
		e.sendType3(ctx, in, msg.Origin, msg.Tag, msg.Value)
	}
	// Step 4: accept after n−t matching echoes.
	if c >= ctx.N()-ctx.T() {
		in.accepted = true
		e.accepted.Add(int(id))
		v := append([]byte(nil), msg.Value...)
		// The vote state is dead weight from here on (see the pruning
		// note above); drop the retained value copies so long runs with
		// millions of broadcast instances keep a bounded footprint.
		in.voted.Clear()
		in.counts.Reset()
		if e.onAccept != nil {
			e.onAccept(ctx, Accept{Origin: msg.Origin, Tag: msg.Tag, Value: v})
		}
	}
	return true
}
