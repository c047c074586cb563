// Package rb implements t-tolerant Reliable Broadcast exactly as
// specified in Appendix A of the paper. RB is Weak Reliable Broadcast
// plus one more echo round, so one Engine runs both phases of every
// instance: WRB's type 1 and type 2, then RB's type 3.
//
// # Weak Reliable Broadcast (Appendix A.1)
//
// Dolev's crusader agreement:
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
// # Reliable Broadcast (Appendix A.2)
//
// Bracha's echo broadcast:
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
// Types 1 and 2 keep WRB's wire kinds (wrb/type1, wrb/type2).
//
// # Representation
//
// Instances are identified by (origin, tag); values are opaque byte
// strings whose equality is the paper's value equality. The packed
// (origin, tag) — proto.PackTag — is interned to a dense id indexing
// one instance slab, and each slab entry carries both phases' vote
// state: a per-sender bitset and an inline per-value counter (package
// intern). One delivery costs one key lookup plus word-sized bit
// arithmetic — no per-instance maps and no warm-path allocation. A
// message whose (origin, tag) does not pack (a process id outside the
// wire's 16 bits) is dropped: it names no instance any peer could
// share.
//
// Echo traffic dominates the whole stack's message count (one broadcast
// costs n type 1 + n² type 2 + n² type 3 messages), so the send path is
// built to batch: echoes for many concurrent tags and sessions produced
// within one delivery step are coalesced per destination and cross the
// wire aggregated behind a single kind header (proto.Pack groups —
// see internal/proto and the node runtime's outbox). Instances also
// prune: once a phase accepts, the rest of its echo storm is dropped
// on arrival and its vote state is released.
//
// # Digest echoes
//
// Two namespaces carry bodies worth sending once: wire-v2 bundle bodies
// (ProtoBundle, see internal/proto) and ACS proposals (ProtoACS, see
// internal/acs). A broadcast under either whose body is at least 32
// bytes is echoed by digest (proto.DigestBody): its type 1 carries the
// body, its type 2 and type 3 carry SHA-256(body), so a broadcast sends
// its body n times (plus pushes) instead of n + 2n² times. Shorter
// bodies are echoed inline, as every other value is. The rule is keyed
// on the tag namespace alone: a broadcast under any other namespace
// runs the paper's protocol byte for byte.
//
//   - The origin's first type 1 is hashed and its body kept — copied out
//     of the frame, except at the origin itself, whose broadcaster hands
//     the body over — and the type 2 echoes the digest (WRB's counting
//     runs unchanged on digests).
//   - A type 1 carrying a body from anyone but the origin is a push: a
//     candidate body, never a reason to echo. At most one is kept per
//     (sender, instance).
//   - A process accepts when it has n−t matching type 3 for digest h
//     *and* a body that hashes to h. Until it pushes, the instance notes,
//     per digest, which senders' type 2 carried it — also after its WRB
//     acceptance and its delivery — so the push skips the peers that
//     already hold the body.
//   - A holder — a process other than the origin whose own type 2
//     carried h — pushes the body to every peer whose type 2 for h it
//     has not seen (Push). The consumer picks the moment: core pushes a
//     bundle at its acceptance, before running its items; acs pushes a
//     proposal once its agreement decided 1, which is when a peer that
//     lacks it needs it (a broadcast never pushed loses totality, which
//     acs needs only for those proposals). The body and notes are kept
//     until the push or Reset. The origin never pushes: its type 1
//     already carried the body to every peer.
//
// Correctness is Bracha's on the digests, plus SHA-256's collision
// resistance: two honest processes that accept hold bodies with one
// digest, hence the same body. Totality, once holders push: if an
// honest process accepts h, every honest process eventually has n−t
// type 3 for h (RB totality), and some honest process WRB-accepted h,
// so n−t type 2 carried h, of which at least n−2t ≥ t+1 came from
// honest processes. An honest process sends type 2 for h only after it
// received a body hashing to h from the origin, and keeps that body
// until it pushes; each of these holders accepts and pushes, unless it
// is the origin, whose own type 1 reached every process. An honest
// process without the body never sent a type 2 for h, so no holder saw
// one, and every holder pushes to it. (Noting only *that* a peer sent a
// type 2 would not do: a peer that echoed an equivocating origin's
// other digest lacks the body too.)
package rb

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// WRB message phases (WeakMsg.Phase).
const (
	Type1 uint8 = 1
	Type2 uint8 = 2
)

// Payload kinds. Types 1 and 2 are the WRB phase's messages.
const (
	KindType1 = "wrb/type1"
	KindType2 = "wrb/type2"
	KindType3 = "rb/type3"
)

// WeakMsg is a WRB-phase message: the dealer's type 1 or a type 2 echo.
type WeakMsg struct {
	Origin sim.ProcID
	Tag    proto.Tag
	Phase  uint8
	Value  []byte
}

var _ proto.Marshaler = WeakMsg{}

// Kind implements sim.Payload.
func (m WeakMsg) Kind() string {
	if m.Phase == Type1 {
		return KindType1
	}
	return KindType2
}

// Size implements sim.Payload.
func (m WeakMsg) Size() int {
	return 2 + m.Tag.Size() + 1 + proto.VarBytesSize(len(m.Value))
}

// MarshalTo implements proto.Marshaler.
func (m WeakMsg) MarshalTo(w *proto.Writer) {
	w.Proc(m.Origin)
	m.Tag.MarshalTo(w)
	w.U8(m.Phase)
	w.VarBytes(m.Value)
}

// weakDecoder decodes a WRB message of the given phase. The phase byte
// must match the kind code it arrived under: a message is never
// re-kinded by its body.
func weakDecoder(phase uint8) proto.DecodeFunc {
	return func(r *proto.Reader) (sim.Payload, error) {
		var m WeakMsg
		m.Origin = r.Proc()
		m.Tag = proto.ReadTag(r)
		m.Phase = r.U8()
		m.Value = r.VarBytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m.Phase != phase {
			return nil, fmt.Errorf("rb: phase %d under phase-%d kind", m.Phase, phase)
		}
		return m, nil
	}
}

// Msg is the RB type 3 (echo) message.
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

// RegisterCodec registers the decoding of all three message types.
func RegisterCodec(c *proto.Codec) {
	c.Register(KindType1, weakDecoder(Type1))
	c.Register(KindType2, weakDecoder(Type2))
	c.Register(KindType3, decodeMsg)
}

// Accept is the output event of one RB instance: origin RB-broadcast
// value under tag, and this process accepted it.
type Accept struct {
	Origin sim.ProcID
	Tag    proto.Tag
	Value  []byte
}

// AcceptFunc consumes accept events; it runs inside the delivering
// process's context and may send messages.
type AcceptFunc func(ctx sim.Context, a Accept)

// instance is one broadcast at this process, both phases.
type instance struct {
	sentType2, sentType3 bool
	weak                 bool // WRB accepted (A.1 step 3): later type 2s are inert
	accepted             bool // n−t matching type 3 counted: later echoes are inert
	delivered            bool // the accepted value was handed out
	type2, type3         tally
	// held is 1 + a digest-echo instance's slot in the engine's held
	// slab until delivery, or at a holder until its push; 0 for every
	// other instance.
	held uint32
}

// tally is one phase's vote state: who voted, and how often each value
// was voted for.
type tally struct {
	voted  intern.ProcSet
	counts intern.ValCounts
}

// vote counts from's first vote, for v, and returns v's total; a repeat
// voter counts nothing and gets 0.
func (t *tally) vote(from sim.ProcID, v []byte) int {
	if !t.voted.Add(from) {
		return 0
	}
	return t.counts.Incr(v)
}

// reset drops the vote state, dead once its phase accepted, so long
// runs with millions of broadcast instances keep a bounded footprint.
func (t *tally) reset() {
	t.voted.Clear()
	t.counts.Reset()
}

// held is what a digest-echo instance keeps until it delivers: the body
// its origin sent it, pushed candidates, the digest its type-3 quorum
// settled on, and which senders' type 2 carried which digest. A holder
// keeps its body and notes past delivery, until it pushes. It lives in
// a slab slot of the engine, emptied and released at delivery or push
// and on Reset, so the warm path allocates no held state; the body
// copies are the accepted values handed out.
type held struct {
	own    []byte // the origin's first type-1 body, copied
	ownSum digest
	cands  []candidate // pushed bodies, at most one per sender
	want   digest
	wanted bool // the type-3 quorum settled on want
	// Each sender is noted under its first digest type 2 only. Honest
	// echoes agree, so the first digest lives inline.
	echo   echo
	echoes []echo
}

type digest = [proto.DigestSize]byte

// largeBody is the runtime's largest small-object size: a larger
// allocation is rounded up to whole 8 KiB pages.
const largeBody = 32 << 10

// candidate is a body a non-origin pushed.
type candidate struct {
	from sim.ProcID
	sum  digest
	body []byte
}

// echo is one digest type 2s carried and the senders that sent it.
type echo struct {
	sum  digest
	from intern.ProcSet
}

// reset empties h, keeping the capacity of cands and echoes.
func (h *held) reset() {
	clear(h.cands)
	clear(h.echoes)
	*h = held{cands: h.cands[:0], echoes: h.echoes[:0]}
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

// note records that from's type 2 carried sum.
func (h *held) note(from sim.ProcID, sum []byte) {
	if h.echo.from.Has(from) {
		return
	}
	for i := range h.echoes {
		if h.echoes[i].from.Has(from) {
			return
		}
	}
	if h.echo.from.Count() == 0 || bytes.Equal(h.echo.sum[:], sum) {
		copy(h.echo.sum[:], sum)
		h.echo.from.Add(from)
		return
	}
	for i := range h.echoes {
		if bytes.Equal(h.echoes[i].sum[:], sum) {
			h.echoes[i].from.Add(from)
			return
		}
	}
	ec := echo{sum: digest(sum)}
	ec.from.Add(from)
	h.echoes = append(h.echoes, ec)
}

// senders returns the senders whose type 2 carried want.
func (h *held) senders() intern.ProcSet {
	if h.echo.sum == h.want {
		return h.echo.from
	}
	for _, ec := range h.echoes {
		if ec.sum == h.want {
			return ec.from
		}
	}
	return intern.ProcSet{}
}

// Engine runs all broadcast instances for one process. Instances are
// slab-allocated: the key table interns the packed (origin, tag) to a
// dense id indexing insts.
type Engine struct {
	self  sim.ProcID
	table intern.Table[proto.PackedTag]
	insts []instance

	// accepted mirrors the instances' accepted flags indexed by slab id,
	// so the echo-storm tail (every type 3 arriving after acceptance) is
	// dropped on a table lookup plus one bit test, without touching the
	// intern write path or the instance slab.
	accepted intern.Bits

	// helds holds the body state of digest instances that have not
	// delivered; every slot outside use is empty and on freeHelds or
	// past len.
	helds     []held
	freeHelds []uint32

	// undelivered counts the digest bodies type 1s brought in, less the
	// ones delivered (see Dropped).
	undelivered int

	onAccept AcceptFunc
}

// New returns an RB engine for process self delivering accepts to
// onAccept.
func New(self sim.ProcID, onAccept AcceptFunc) *Engine {
	return &Engine{self: self, onAccept: onAccept}
}

// Broadcast reliably broadcasts value under tag with this process as
// dealer (A.2 step 1, which is A.1 step 1). The engine may keep value
// (a digest-echoed body, see the package header), so the caller must
// not change it afterwards.
func (e *Engine) Broadcast(ctx sim.Context, tag proto.Tag, value []byte) {
	sendAll(ctx, WeakMsg{Origin: e.self, Tag: tag, Phase: Type1, Value: value})
}

// sendAll sends pl to every process. The payload is boxed once by the
// caller's conversion: n sends of the same message otherwise cost n
// interface-conversion allocations on the hottest send path.
func sendAll(ctx sim.Context, pl sim.Payload) {
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

// Created returns the cumulative number of instances ever created.
func (e *Engine) Created() uint64 { return e.table.Created() }

// Live returns the number of live instances (retirement tests).
func (e *Engine) Live() int { return e.table.Len() }

// SlabCap returns the instance slab's high-water slot count.
func (e *Engine) SlabCap() int { return e.table.HighWater() }

// Dropped returns how many digest bodies this engine received in a
// type 1 and did not deliver: repeats, pushes refused or not needed,
// an equivocating origin's losing body, and bodies still held — which
// only a delivery could use, so a consumer reads this when it retires
// the engine. Reset does not clear it.
func (e *Engine) Dropped() int { return e.undelivered }

// Weak returns e itself: the WRB phase runs in e's own instances.
//
// Deprecated: kept only so the benchmark harness's Weak().Created()
// still compiles; removed by ROADMAP item 6 step 1.
func (e *Engine) Weak() *Engine { return e }

// Reset releases every instance and its interned id, keeping allocated
// capacity. Used when the owning stack retires and by benchmarks to
// recycle slots.
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
}

// Handle processes a message if it belongs to RB or its WRB phase,
// reporting whether it was consumed.
func (e *Engine) Handle(ctx sim.Context, m sim.Message) bool {
	switch msg := m.Payload.(type) {
	case WeakMsg:
		k, ok := proto.PackTag(msg.Origin, msg.Tag)
		if !ok {
			return true
		}
		switch msg.Phase {
		case Type1:
			if proto.DigestBody(msg.Tag, msg.Value) {
				e.onBody(ctx, m.From, k, msg)
			} else if m.From == msg.Origin {
				e.echoType1(ctx, &e.insts[e.inst(k)], msg, msg.Value)
			}
		case Type2:
			e.onType2(ctx, m.From, k, msg)
		}
		return true
	case Msg:
		if k, ok := proto.PackTag(msg.Origin, msg.Tag); ok {
			e.onType3(ctx, m.From, k, msg)
		}
		return true
	}
	return false
}

// echoType1 is A.1 step 2: echo the dealer's first type 1, as value.
func (e *Engine) echoType1(ctx sim.Context, in *instance, w WeakMsg, value []byte) {
	if in.sentType2 {
		return
	}
	in.sentType2 = true
	sendAll(ctx, WeakMsg{Origin: w.Origin, Tag: w.Tag, Phase: Type2, Value: value})
}

// onType2 is A.1 step 3 and A.2 step 2: on n−t matching type 2, WRB
// accepts r and the process sends (r, 3). Echo pruning: a WRB-accepted
// instance can neither accept again nor send anything in response to a
// type 2, and neither can one that RB-accepted (it sent its type 3),
// so the rest of the storm (up to t per instance) skips the vote state.
// The type 1 rule stays live — a slow process must still echo the
// dealer's value so its peers can reach their own n−t thresholds
// (suppressing the echo of an already-accepted process would strand
// peers at n−t−1 matching echoes when exactly n−t processes are
// honest). For the push, a bundle digest's senders are noted until
// delivery, past acceptance too.
func (e *Engine) onType2(ctx sim.Context, from sim.ProcID, k proto.PackedTag, w WeakMsg) {
	in := &e.insts[e.inst(k)]
	if in.accepted && in.held == 0 {
		return
	}
	if proto.DigestEcho(w.Tag, w.Value) {
		e.hold(in).note(from, w.Value)
	}
	if in.weak || in.accepted {
		return
	}
	if in.type2.vote(from, w.Value) >= ctx.N()-ctx.T() {
		in.weak = true
		// The type 3 outlives this delivery: it carries the counter's
		// copy, not a view of the frame.
		value := in.type2.counts.Stored(w.Value)
		in.type2.reset()
		e.sendType3(ctx, in, w.Origin, w.Tag, value)
	}
}

func (e *Engine) sendType3(ctx sim.Context, in *instance, origin sim.ProcID, tag proto.Tag, value []byte) {
	if in.sentType3 {
		return
	}
	in.sentType3 = true
	sendAll(ctx, Msg{Origin: origin, Tag: tag, Value: value})
}

// onBody handles a type 1 carrying a bundle body that is echoed by
// digest. From the origin, the first such body is kept and its digest
// echoed. From anyone else it is a push: only a candidate for the
// digest the type-3 quorum settles on, never a reason to echo.
func (e *Engine) onBody(ctx sim.Context, from sim.ProcID, k proto.PackedTag, w WeakMsg) {
	id := e.inst(k)
	in := &e.insts[id]
	e.undelivered++
	if from == w.Origin {
		if in.sentType2 {
			return // the first body is kept and echoed already
		}
		var sum []byte // the type 2's sends keep it
		if in.delivered {
			s := sha256.Sum256(w.Value)
			sum = s[:]
		} else if h := e.hold(in); from == e.self {
			// This process's own broadcast: the broadcaster handed the
			// body over and never changes it.
			h.own, h.ownSum = w.Value, sha256.Sum256(w.Value)
			sum = append([]byte(nil), h.ownSum[:]...)
		} else if n := len(w.Value); n > largeBody {
			// A large frame body is copied on its own: one allocation
			// with its digest would round up to whole pages, 72 KiB for
			// a 64 KiB body.
			h.own = append(make([]byte, 0, n), w.Value...)
			h.ownSum = sha256.Sum256(w.Value)
			sum = append([]byte(nil), h.ownSum[:]...)
		} else {
			// A frame's body: one allocation holds its copy and digest.
			buf := append(make([]byte, 0, n+proto.DigestSize), w.Value...)
			h.ownSum = sha256.Sum256(w.Value)
			buf = append(buf, h.ownSum[:]...)
			h.own, sum = buf[:n:n], buf[n:]
		}
		e.echoType1(ctx, in, w, sum)
	} else {
		// Most pushes reach a process that already holds or delivered
		// the body: those are dropped before hashing.
		if in.delivered || from == e.self {
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
	if in.held != 0 && !in.delivered {
		if h := &e.helds[in.held-1]; h.wanted {
			if body := h.match(); body != nil {
				e.deliver(ctx, id, w.Origin, w.Tag, body)
			}
		}
	}
}

// deliver hands body, which hashes to the accepted digest of instance
// id, to the consumer. A holder — not the origin, and its own type 2
// carried the digest — keeps its body and notes for Push; every other
// held thing goes.
func (e *Engine) deliver(ctx sim.Context, id uint32, origin sim.ProcID, tag proto.Tag, body []byte) {
	in := &e.insts[id]
	in.delivered = true
	e.undelivered--
	if h := &e.helds[in.held-1]; origin != e.self && h.own != nil && h.ownSum == h.want {
		clear(h.cands)
		h.cands = h.cands[:0]
	} else {
		e.freeHeld(in)
	}
	if e.onAccept != nil {
		e.onAccept(ctx, Accept{Origin: origin, Tag: tag, Value: body})
	}
}

// Push is a holder's totality step for the digest instance (origin,
// tag), run once it delivered: it sends the body to every peer whose
// type 2 for the accepted digest this process has not seen, since those
// may not hold it, and releases the body and notes. Anywhere else —
// not delivered, not a holder, pushed already — it sends nothing. It
// returns the number of sends.
func (e *Engine) Push(ctx sim.Context, origin sim.ProcID, tag proto.Tag) int {
	k, ok := proto.PackTag(origin, tag)
	if !ok {
		return 0
	}
	id := e.table.Lookup(k)
	if id == intern.NoID || !e.insts[id].delivered || e.insts[id].held == 0 {
		return 0
	}
	in := &e.insts[id]
	h := &e.helds[in.held-1]
	body, echoed := h.own, h.senders()
	e.freeHeld(in)
	var pl sim.Payload = WeakMsg{Origin: origin, Tag: tag, Phase: Type1, Value: body}
	sent := 0
	for q := sim.ProcID(1); int(q) <= ctx.N(); q++ {
		if q != e.self && q != origin && !echoed.Has(q) {
			ctx.Send(q, pl)
			sent++
		}
	}
	return sent
}

// onType3 is A.2 steps 3 and 4.
func (e *Engine) onType3(ctx sim.Context, from sim.ProcID, k proto.PackedTag, msg Msg) {
	// Fast accepted drop: the post-acceptance tail of an echo storm is
	// the hottest delivery class, so it exits on one lookup (usually the
	// table's one-slot cache) and one bit test — before the interning
	// write path below.
	if id := e.table.Lookup(k); id != intern.NoID && e.accepted.Has(int(id)) {
		return
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
		return
	}
	c := in.type3.vote(from, msg.Value)
	// Step 3: amplify after t+1 matching echoes.
	if c >= ctx.T()+1 {
		e.sendType3(ctx, in, msg.Origin, msg.Tag, msg.Value)
	}
	// Step 4: accept after n−t matching echoes. Both phases' vote state
	// is dead from here on.
	if c >= ctx.N()-ctx.T() {
		in.accepted = true
		e.accepted.Add(int(id))
		in.type2.reset()
		if proto.DigestEcho(msg.Tag, msg.Value) {
			// A digest: deliver once a held body hashes to it.
			in.type3.reset()
			h := e.hold(in)
			h.wanted = true
			h.want = digest(msg.Value)
			if body := h.match(); body != nil {
				e.deliver(ctx, id, msg.Origin, msg.Tag, body)
			}
			return
		}
		// The accepted value is the counter's copy.
		in.delivered = true
		value := in.type3.counts.Stored(msg.Value)
		in.type3.reset()
		if e.onAccept != nil {
			e.onAccept(ctx, Accept{Origin: msg.Origin, Tag: msg.Tag, Value: value})
		}
	}
}
