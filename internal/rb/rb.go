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
//
// Digest echoes. A broadcast under a ProtoBundle tag (a wire-v2 bundle
// body, see internal/proto) whose body is at least 32 bytes is echoed
// by digest: its type 1 carries the body, its type 2 and type 3 carry
// SHA-256(body), so a broadcast sends its body n times (plus pushes)
// instead of n + 2n² times. Shorter bodies are echoed inline, as every
// other value is. The rule is keyed on the tag namespace alone; wire
// v1 never broadcasts a bundle, so it runs the paper's protocol byte
// for byte.
//
//   - The origin's first type 1 is copied and hashed, and WRB echoes
//     the digest (WRB's counting runs unchanged on digests).
//   - A type 1 for a bundle body from anyone but the origin is a push:
//     a candidate body, never a reason to echo. At most one is kept per
//     (sender, instance).
//   - A process accepts when it has n−t matching type 3 for digest h
//     *and* a body that hashes to h.
//   - On accepting, a process whose own type 2 carried h pushes the
//     body to every peer whose type 2 for h it has not seen. Until then
//     WRB notes, per digest, which senders' type 2 carried it — also
//     after its own acceptance — so the push skips the peers that
//     already hold the body. The held body, candidates and notes go at
//     acceptance (wrb.Engine.Settle) and on Reset.
//
// Correctness is Bracha's on the digests, plus SHA-256's collision
// resistance: two honest processes that accept hold bodies with one
// digest, hence the same body. Totality: if an honest process accepts
// h, every honest process eventually has n−t type 3 for h (RB
// totality), and some honest process WRB-accepted h, so n−t type 2
// carried h, of which at least n−2t ≥ t+1 came from honest processes.
// An honest process sends type 2 for h only after it received a body
// hashing to h from the origin, and keeps that body until it accepts;
// each of these holders accepts and pushes. An honest process without
// the body never sent a type 2 for h, so no holder saw one, and every
// holder pushes to it. (Noting only *that* a peer sent a type 2 would
// not do: a peer that echoed an equivocating origin's other digest
// lacks the body too.)
package rb

import (
	"bytes"
	"crypto/sha256"

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
	accepted  bool // n−t matching type 3 counted: later echoes are inert
	voted     intern.ProcSet
	counts    intern.ValCounts
	// held is 1 + a digest-echo instance's slot in the engine's held
	// slab until delivery; 0 for every other instance and once
	// delivered. An instance has delivered when it accepted and holds
	// nothing.
	held uint32
}

// held is what a digest-echo instance keeps until it delivers: the body
// its origin sent it, pushed candidates, and the digest its type-3
// quorum settled on. It lives in a slab slot of the engine, emptied and
// released at delivery and on Reset, so the warm path allocates no
// held state; the body copies are the accepted values handed out.
type held struct {
	own    []byte // the origin's first type-1 body, copied
	ownSum digest
	cands  []candidate // pushed bodies, at most one per sender
	want   digest
	wanted bool // the type-3 quorum settled on want
}

type digest = [proto.BundleDigestSize]byte

// candidate is a body a non-origin pushed.
type candidate struct {
	from sim.ProcID
	sum  digest
	body []byte
}

// reset empties h, keeping the capacity of cands.
func (h *held) reset() {
	clear(h.cands)
	*h = held{cands: h.cands[:0]}
}

// match returns the held body hashing to want, or nil.
func (h *held) match() []byte {
	if h.own != nil && h.ownSum == h.want {
		return h.own
	}
	for _, c := range h.cands {
		if c.sum == h.want {
			return c.body
		}
	}
	return nil
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

	// helds holds the body state of digest instances that have not
	// delivered; every slot outside use is empty and on freeHelds or
	// past len.
	helds     []held
	freeHelds []uint32

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
		e.freeHeld(&e.insts[id])
		e.insts[id] = instance{}
		e.accepted.Remove(int(id)) // recycled slot: drop the old occupant's bit
	}
	return id
}

// hold returns in's body state, taking a free slab slot first. The
// pointer is valid until the next hold.
func (e *Engine) hold(in *instance) *held {
	if in.held == 0 {
		if n := len(e.freeHelds); n > 0 {
			in.held = e.freeHelds[n-1]
			e.freeHelds = e.freeHelds[:n-1]
		} else {
			if len(e.helds) < cap(e.helds) {
				e.helds = e.helds[:len(e.helds)+1]
			} else {
				e.helds = append(e.helds, held{})
			}
			in.held = uint32(len(e.helds))
		}
	}
	return &e.helds[in.held-1]
}

// freeHeld empties in's body state and returns its slot.
func (e *Engine) freeHeld(in *instance) {
	if in.held == 0 {
		return
	}
	e.helds[in.held-1].reset()
	e.freeHelds = append(e.freeHelds, in.held)
	in.held = 0
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
	for i := range e.helds {
		e.helds[i].reset()
	}
	e.helds = e.helds[:0]
	e.freeHelds = e.freeHelds[:0]
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

// onBody handles a type 1 carrying a bundle body that is echoed by
// digest. From the origin, the first such body is kept and WRB echoes
// its digest. From anyone else it is a push: only a candidate for the
// digest the type-3 quorum settles on, never a reason to echo.
func (e *Engine) onBody(ctx sim.Context, from sim.ProcID, w wrb.Msg) {
	k, ok := proto.PackTag(w.Origin, w.Tag)
	if !ok {
		return
	}
	id := e.inst(k)
	in := &e.insts[id]
	delivered := in.accepted && in.held == 0
	if from == w.Origin {
		var h *held
		if !delivered {
			h = e.hold(in)
		}
		var sum []byte // the WRB echo's sends keep it
		if h != nil && h.own == nil {
			// One allocation holds the body copy and its digest.
			n := len(w.Value)
			buf := append(make([]byte, 0, n+proto.BundleDigestSize), w.Value...)
			h.ownSum = sha256.Sum256(w.Value)
			buf = append(buf, h.ownSum[:]...)
			h.own, sum = buf[:n:n], buf[n:]
		} else {
			s := sha256.Sum256(w.Value)
			sum = s[:]
		}
		// WRB's type 1 rule, on the digest: echo the first one only.
		e.weak.Handle(ctx, sim.Message{From: from, To: e.self,
			Payload: wrb.Msg{Origin: w.Origin, Tag: w.Tag, Phase: wrb.Type1, Value: sum}})
	} else {
		// Most pushes reach a process that already holds or delivered
		// the body: those are dropped before hashing.
		if delivered || from == e.self {
			return
		}
		h := e.hold(in)
		if bytes.Equal(w.Value, h.own) {
			return
		}
		for _, c := range h.cands {
			if c.from == from {
				return
			}
		}
		sum := sha256.Sum256(w.Value)
		if h.wanted && sum != h.want {
			return
		}
		h.cands = append(h.cands, candidate{from: from, sum: sum, body: append([]byte(nil), w.Value...)})
	}
	// Look the instance and its held state up afresh rather than keep
	// slab pointers across the WRB echo's sends.
	in = &e.insts[id]
	if in.held != 0 {
		if h := &e.helds[in.held-1]; h.wanted {
			if body := h.match(); body != nil {
				e.deliver(ctx, id, w.Origin, w.Tag, body)
			}
		}
	}
}

// deliver accepts body for digest instance id. If this process echoed
// the digest itself (it holds the origin's body), it first pushes the
// body to every peer whose type 2 for the digest it has not seen:
// those may not hold it. The held state and WRB's notes go.
func (e *Engine) deliver(ctx sim.Context, id uint32, origin sim.ProcID, tag proto.Tag, body []byte) {
	in := &e.insts[id]
	h := &e.helds[in.held-1]
	want, pushes := h.want, h.own != nil && h.ownSum == h.want
	e.freeHeld(in)
	echoed := e.weak.Settle(origin, tag, want[:])
	if pushes {
		var pl sim.Payload = wrb.Msg{Origin: origin, Tag: tag, Phase: wrb.Type1, Value: body}
		for q := sim.ProcID(1); int(q) <= ctx.N(); q++ {
			if q != e.self && q != origin && !echoed.Has(q) {
				ctx.Send(q, pl)
			}
		}
	}
	if e.onAccept != nil {
		e.onAccept(ctx, Accept{Origin: origin, Tag: tag, Value: body})
	}
}

// Handle processes a message if it belongs to RB or its WRB subroutine,
// reporting whether it was consumed.
func (e *Engine) Handle(ctx sim.Context, m sim.Message) bool {
	if w, ok := m.Payload.(wrb.Msg); ok {
		if w.Phase == wrb.Type1 && proto.DigestBody(w.Tag, w.Value) {
			e.onBody(ctx, m.From, w)
			return true
		}
		return e.weak.Handle(ctx, m)
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
		// The vote state is dead weight from here on (see the pruning
		// note above); drop the retained value copies so long runs with
		// millions of broadcast instances keep a bounded footprint.
		in.voted.Clear()
		in.counts.Reset()
		if proto.DigestEcho(msg.Tag, msg.Value) {
			// A digest: deliver once a held body hashes to it.
			h := e.hold(in)
			h.wanted = true
			copy(h.want[:], msg.Value)
			if body := h.match(); body != nil {
				e.deliver(ctx, id, msg.Origin, msg.Tag, body)
			}
			return true
		}
		v := append([]byte(nil), msg.Value...)
		if e.onAccept != nil {
			e.onAccept(ctx, Accept{Origin: msg.Origin, Tag: msg.Tag, Value: v})
		}
	}
	return true
}
