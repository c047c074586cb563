// Package core assembles the paper's protocol stack into a per-process
// engine: a Node owns the reliable-broadcast engine (Appendix A), the DMM
// protocol (§3.3), and a routing table that dispatches filtered events to
// the registered protocol layers (MW-SVSS §3.2, SVSS §4, common coin and
// agreement §5).
//
// Message flow on delivery:
//
//	sim message ──> D_i discard (DMM step 4)
//	      │
//	      ├── WRB/RB internal message ──> rb.Engine ──> accept event
//	      │        accept ──> observer hooks (DMM steps 2/3)
//	      │               ──> DMM filter (delay/park, step 5)
//	      │               ──> broadcast handler by tag.Proto
//	      │
//	      └── direct protocol message
//	               ──> DMM filter when payload carries a session
//	               ──> direct handler by payload kind
//
// After every delivery, parked events whose delay condition cleared are
// drained and dispatched in park order.
package core

import (
	"svssba/internal/dmm"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// BroadcastHandler consumes an RB-accepted broadcast.
type BroadcastHandler func(ctx sim.Context, origin sim.ProcID, tag proto.Tag, value []byte)

// ObserverHandler inspects an accepted broadcast before filtering (used
// for DMM expectation resolution, which must not be delayed).
type ObserverHandler func(origin sim.ProcID, tag proto.Tag, value []byte)

// DirectHandler consumes a direct protocol message.
type DirectHandler func(ctx sim.Context, m sim.Message)

// InitFunc runs when the process initializes.
type InitFunc func(ctx sim.Context)

// maxProtoNS bounds the broadcast tag namespaces (proto.Proto* ids are
// small consecutive constants), so broadcast routing is an array index.
const maxProtoNS = 16

// Node is the per-process protocol host. It implements sim.Handler and
// the Host interfaces of the protocol packages.
type Node struct {
	id        sim.ProcID
	rbEng     *rb.Engine
	dmmSt     *dmm.DMM
	direct    map[string]DirectHandler
	bcast     [maxProtoNS]BroadcastHandler
	observers [maxProtoNS][]ObserverHandler
	inits     []InitFunc

	// One-slot dispatch cache: deliveries cluster by kind, and kind
	// strings are constants, so the == is usually a pointer compare.
	lastKind    string
	lastHandler DirectHandler

	retired bool

	sendTamper  SendTamper
	bcastTamper BcastTamper

	// The last wrap (see wrap): the raw context, its wrapper, and whether
	// the raw context may be compared with ==.
	wrapRaw sim.Context
	wrapped sim.Context
	wrapCmp bool

	// Wire v2 burst state (see wire2.go). packBuf is indexed by
	// destination-1 and packOrder preserves first-send order so flushes
	// are deterministic.
	wire2       bool
	inBurst     bool
	packOrder   []sim.ProcID
	packBuf     [][]sim.Payload
	bunTags     []proto.Tag
	bunVals     [][]byte
	bunSeq      uint32
	bunOpen     int                // own bundles broadcast and not yet accepted
	bunItems    []proto.BundleItem // onRBAccept's decode buffer
	echoSeen    map[echoKey]struct{}
	echoDeduped uint64

	// accTrace observes every logically accepted broadcast (tracing).
	// Nil when observability is off — the hot path pays one nil check.
	accTrace func(origin sim.ProcID, tag proto.Tag, size int)
}

var _ sim.Handler = (*Node)(nil)

// NewNode creates a protocol host for process id. onShun observes D_i
// additions (may be nil).
func NewNode(id sim.ProcID, onShun dmm.ShunFunc) *Node {
	n := &Node{
		id:     id,
		direct: make(map[string]DirectHandler),
	}
	n.dmmSt = dmm.New(id, onShun)
	n.rbEng = rb.New(id, n.onRBAccept)
	return n
}

// ID implements sim.Handler.
func (n *Node) ID() sim.ProcID { return n.id }

// Self implements the protocol Host interfaces.
func (n *Node) Self() sim.ProcID { return n.id }

// DMM returns the process's detection and message management state.
func (n *Node) DMM() *dmm.DMM { return n.dmmSt }

// Broadcast reliably broadcasts value under tag (origin = this process).
func (n *Node) Broadcast(ctx sim.Context, tag proto.Tag, value []byte) {
	if n.bcastTamper != nil {
		out, keep := n.bcastTamper(ctx, tag, value)
		if !keep {
			return
		}
		value = out
	}
	if n.wire2 && n.inBurst {
		n.bundleAdd(tag, value)
		return
	}
	n.rbEng.Broadcast(n.wrap(ctx), tag, value)
}

// Ctx returns the context the node's engines send through — ctx behind
// the send tamper and, under wire v2 within a burst, the destination
// packs — for a host that sends, or feeds the RB engine, on the node's
// behalf from outside a delivery. Inside one the handler's context is
// already this.
func (n *Node) Ctx(ctx sim.Context) sim.Context { return n.wrap(ctx) }

// HandleDirect routes direct messages of the given payload kind.
func (n *Node) HandleDirect(kind string, h DirectHandler) {
	n.direct[kind] = h
	n.lastKind, n.lastHandler = "", nil
}

// HandleBroadcast routes accepted broadcasts of the given tag namespace.
func (n *Node) HandleBroadcast(protoNS uint8, h BroadcastHandler) {
	n.bcast[protoNS] = h
}

// ObserveBroadcast registers a pre-filter observer for a tag namespace.
func (n *Node) ObserveBroadcast(protoNS uint8, h ObserverHandler) {
	n.observers[protoNS] = append(n.observers[protoNS], h)
}

// AddInit registers an initialization function (e.g. start dealing).
func (n *Node) AddInit(f InitFunc) { n.inits = append(n.inits, f) }

// Init implements sim.Handler.
func (n *Node) Init(ctx sim.Context) {
	raw := ctx
	ctx = n.wrap(ctx)
	if n.wire2 {
		n.inBurst = true
	}
	for _, f := range n.inits {
		f(ctx)
	}
	n.drain(ctx)
	if n.wire2 {
		n.flushBurst(raw, ctx)
		n.inBurst = false
	}
}

// Retire drops the node's routing-independent protocol state — every
// RB/WRB instance and all DMM bookkeeping — and gates further
// deliveries. Call only when the process is done participating (the
// agreement decided and halted): from then on inbound traffic can no
// longer affect any outcome, so dropping it at the door keeps a
// long-lived node's memory bounded instead of growing with every echo
// that trickles in after the decision. Broadcasts held for an open
// bundle are dropped too, unsent (see wire2.go).
func (n *Node) Retire() {
	n.retired = true
	n.rbEng.Reset()
	n.dmmSt.Reset()
	clear(n.bunVals)
	n.bunTags, n.bunVals, n.bunOpen = n.bunTags[:0], n.bunVals[:0], 0
}

// Retired reports whether Retire ran.
func (n *Node) Retired() bool { return n.retired }

// RB exposes the reliable-broadcast engine (state accounting).
func (n *Node) RB() *rb.Engine { return n.rbEng }

// Deliver implements sim.Handler.
func (n *Node) Deliver(ctx sim.Context, m sim.Message) {
	if n.retired {
		return
	}
	raw := ctx
	ctx = n.wrap(ctx)
	// DMM step 4: any message sent by a process in D_i is discarded.
	if n.dmmSt.IsFaulty(m.From) {
		return
	}
	if !n.wire2 {
		if n.rbEng.Handle(ctx, m) {
			n.drain(ctx)
			return
		}
		n.dispatchDirect(ctx, m)
		n.drain(ctx)
		return
	}
	n.inBurst = true
	if pk, ok := m.Payload.(proto.Pack); ok {
		n.deliverPack(ctx, m, pk)
	} else if n.rbEng.Handle(ctx, m) {
		n.drain(ctx)
	} else {
		n.dispatchDirect(ctx, m)
		n.drain(ctx)
	}
	n.flushBurst(raw, ctx)
	n.inBurst = false
}

func (n *Node) dispatchDirect(ctx sim.Context, m sim.Message) {
	s, sessioned := m.Payload.(dmm.Sessioned)
	if !sessioned {
		n.deliverDirect(ctx, m)
		return
	}
	ref := s.SessionRef()
	switch n.dmmSt.Check(m.From, ref) {
	case dmm.Forward:
		n.deliverDirect(ctx, m)
	case dmm.Parked:
		n.dmmSt.Park(dmm.Event{Class: dmm.ClassDirect, From: m.From, Ref: ref, Msg: m})
	}
}

func (n *Node) deliverDirect(ctx sim.Context, m sim.Message) {
	kind := m.Payload.Kind()
	if kind == n.lastKind && n.lastHandler != nil {
		n.lastHandler(ctx, m)
		return
	}
	if h, ok := n.direct[kind]; ok {
		n.lastKind, n.lastHandler = kind, h
		h(ctx, m)
	}
}

// onRBAccept receives accepted broadcasts from the RB engine.
func (n *Node) onRBAccept(ctx sim.Context, a rb.Accept) {
	if a.Origin < 1 || int(a.Origin) > ctx.N() {
		// Unreachable with n > 3t: accepting requires n−t matching
		// echoes, honest processes never echo an out-of-range origin
		// (the WRB dealer check fails for it), and t Byzantine echoes
		// cannot meet the threshold. Guarded anyway — the dense layers
		// index per-origin state by process id.
		return
	}
	if a.Tag.Proto == proto.ProtoBundle {
		// A holder pushes the body before the items run, as it would
		// have at delivery.
		n.rbEng.Push(ctx, a.Origin, a.Tag)
		if !n.wire2 {
			return
		}
		if a.Origin == n.id && n.bunOpen > 0 {
			n.bunOpen-- // the burst's end flushes what this held
		}
		// Decode into the node's item buffer, taking it for the
		// duration: an accept nested inside one of the handlers below
		// finds it taken and decodes into a fresh one.
		items := n.bunItems
		n.bunItems = nil
		items, err := proto.DecodeBundle(items[:0], a.Value)
		if err != nil {
			// Corrupt bundle body: drop it whole. Only its Byzantine
			// origin loses messages.
			clear(items[:cap(items)])
			n.bunItems = items
			return
		}
		for _, it := range items {
			if it.Tag.Proto == proto.ProtoACS {
				// A proposal never rides a bundle: acs sends its type 1
				// itself. A bundled one is a Byzantine origin's second
				// announcement, which first-wins handlers would settle
				// differently on different nodes.
				continue
			}
			n.acceptOne(ctx, a.Origin, it.Tag, it.Value)
		}
		clear(items) // the values alias the bundle body
		n.bunItems = items[:0]
		return
	}
	n.acceptOne(ctx, a.Origin, a.Tag, a.Value)
}

// SetAcceptTrace registers an observer for logically accepted
// broadcasts (nil to clear). Observation-only: it runs before routing
// and must not send or mutate protocol state.
func (n *Node) SetAcceptTrace(fn func(origin sim.ProcID, tag proto.Tag, size int)) {
	n.accTrace = fn
}

// acceptOne routes one logical accepted broadcast — the v1 accept body,
// applied per bundle item under wire v2.
func (n *Node) acceptOne(ctx sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
	if n.accTrace != nil {
		n.accTrace(origin, tag, len(value))
	}
	// Re-checked per item: an earlier bundle item may have shunned the
	// origin.
	if n.dmmSt.IsFaulty(origin) {
		return
	}
	if tag.Proto >= maxProtoNS {
		// No layer can be registered for this namespace; a crafted tag
		// must not index past the routing tables.
		return
	}
	// Expectation resolution (DMM steps 2/3) runs before filtering.
	for _, obs := range n.observers[tag.Proto] {
		obs(origin, tag, value)
	}
	if tag.Session.IsZero() {
		n.deliverBcast(ctx, origin, tag, value)
		return
	}
	ref := proto.MWID{Session: tag.Session, Key: tag.MW}
	switch n.dmmSt.Check(origin, ref) {
	case dmm.Forward:
		n.deliverBcast(ctx, origin, tag, value)
	case dmm.Parked:
		n.dmmSt.Park(dmm.Event{Class: dmm.ClassBroadcast, From: origin, Ref: ref, Tag: tag, Value: value})
	}
}

func (n *Node) deliverBcast(ctx sim.Context, origin sim.ProcID, tag proto.Tag, value []byte) {
	if tag.Proto >= maxProtoNS {
		return
	}
	if h := n.bcast[tag.Proto]; h != nil {
		h(ctx, origin, tag, value)
	}
}

// drain dispatches parked events whose delay cleared; dispatching may
// clear more, so it loops to a fixed point.
func (n *Node) drain(ctx sim.Context) {
	for {
		ready := n.dmmSt.TakeReady()
		if len(ready) == 0 {
			return
		}
		for _, ev := range ready {
			switch ev.Class {
			case dmm.ClassDirect:
				n.deliverDirect(ctx, ev.Msg)
			case dmm.ClassBroadcast:
				n.deliverBcast(ctx, ev.From, ev.Tag, ev.Value)
			}
		}
	}
}
