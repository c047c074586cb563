package core

import (
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// Wire v2 restructures a node's outgoing traffic around delivery bursts.
// A burst is one Deliver (or Init) call: every direct payload the burst
// produces for one destination is coalesced into a single proto.Pack,
// and every logical broadcast it produces is coalesced into ProtoBundle
// reliable broadcasts, so the RB echo storm is paid once per burst
// instead of once per logical message. Identical echo bodies to the same
// peer within a burst are additionally deduplicated before they enter
// the pack (the engines' one-shot guards make honest duplicates
// impossible, so the counter doubles as an invariant check).
//
// v2 also changes what bundle echoes carry: the RB engine echoes a
// bundle body of 32 bytes or more by its SHA-256 digest, so the body
// crosses each link once (in the origin's type 1) and reaches any
// process the origin skipped by push (see package rb). A bundle is
// accepted only with a body hashing to the accepted digest, so
// onRBAccept still receives the body.
//
// Beyond that, v2 changes message shape, not protocol logic: every bundle item is
// filtered, observed and dispatched through the same per-event path as a
// v1 broadcast, and every pack item through the same per-payload path as
// a v1 direct message. The one semantic difference is that per-
// (origin, tag) broadcast uniqueness is enforced by the upper layers'
// first-wins guards rather than by RB itself (a Byzantine origin could
// re-announce a tag across two bundles); every handler in the stack
// carries such a guard. v2 therefore runs as a declared protocol variant
// with its own pinned parity digest and a cross-variant equivalence
// test against v1.

// maxBundleItems bounds logical broadcasts per ProtoBundle instance, so
// one bundle body (the RB value that gets echoed and counted) stays
// small even during reveal cascades.
const maxBundleItems = 256

// EnableWireV2 switches the node to burst-coalesced traffic. Call before
// Init; all nodes of a run must agree on the wire variant.
func (n *Node) EnableWireV2() {
	n.wire2 = true
	n.wrapCmp = false // a cached v1 wrapper must not serve a v2 node
}

// WireV2 reports whether burst coalescing is enabled.
func (n *Node) WireV2() bool { return n.wire2 }

// EchoDeduped returns the number of duplicate echo payloads suppressed
// within delivery bursts (expected 0 for honest traffic).
func (n *Node) EchoDeduped() uint64 { return n.echoDeduped }

// burstCtx intercepts sends during a v2 delivery burst: tampering is
// applied per logical payload against the raw context (so Byzantine
// behaviors see exactly the v1-shaped traffic), then the payload is
// buffered into the per-destination pack.
type burstCtx struct {
	sim.Context // raw context
	node        *Node
}

func (c burstCtx) Send(to sim.ProcID, p sim.Payload) {
	n := c.node
	if n.sendTamper != nil {
		out, keep := n.sendTamper(c.Context, to, p)
		if !keep {
			return
		}
		p = out
	}
	if !n.inBurst {
		c.Context.Send(to, p)
		return
	}
	n.packAdd(c.Context, to, p)
}

// echoKey identifies an echo payload for within-burst deduplication:
// the packed (origin, tag) and one word for destination<<8 | phase.
type echoKey struct {
	tag  proto.PackedTag
	dest uint64
}

const (
	echoPhaseWRB uint8 = 2    // WRB type-2 echo
	echoPhaseRB  uint8 = 3    // rb type-3 echo
	echoPhaseMW  uint8 = 0xEE // mwsvss direct echo
)

// dedupKey extracts the dedup key for echo-class payloads; ok is false
// for everything else, and for ids outside the wire domain (those
// always pack).
func (n *Node) dedupKey(to sim.ProcID, p sim.Payload) (echoKey, bool) {
	var (
		origin sim.ProcID
		tag    proto.Tag
		phase  uint8
	)
	switch v := p.(type) {
	case rb.WeakMsg:
		if v.Phase != rb.Type2 {
			return echoKey{}, false
		}
		origin, tag, phase = v.Origin, v.Tag, echoPhaseWRB
	case rb.Msg:
		origin, tag, phase = v.Origin, v.Tag, echoPhaseRB
	case mwsvss.Echo:
		origin, phase = n.id, echoPhaseMW
		tag = proto.Tag{Proto: proto.ProtoMW, Session: v.MW.Session, MW: v.MW.Key}
	default:
		return echoKey{}, false
	}
	k, ok := proto.PackTag(origin, tag)
	if !ok || !proto.WireProc(to) {
		return echoKey{}, false
	}
	return echoKey{tag: k, dest: uint64(to)<<8 | uint64(phase)}, true
}

// packAdd buffers p for destination to, deduplicating echo payloads.
func (n *Node) packAdd(ctx sim.Context, to sim.ProcID, p sim.Payload) {
	if k, ok := n.dedupKey(to, p); ok {
		if n.echoSeen == nil {
			n.echoSeen = make(map[echoKey]struct{})
		}
		if _, dup := n.echoSeen[k]; dup {
			n.echoDeduped++
			return
		}
		n.echoSeen[k] = struct{}{}
	}
	i := int(to) - 1
	if i < 0 || i >= ctx.N() {
		ctx.Send(to, p) // out-of-range destination: let the network account for it
		return
	}
	if n.packBuf == nil {
		n.packBuf = make([][]sim.Payload, ctx.N())
	}
	if len(n.packBuf[i]) == 0 {
		n.packOrder = append(n.packOrder, to)
	}
	n.packBuf[i] = append(n.packBuf[i], p)
}

// bundleAdd buffers one logical broadcast for the burst's bundles.
func (n *Node) bundleAdd(tag proto.Tag, value []byte) {
	n.bunTags = append(n.bunTags, tag)
	n.bunVals = append(n.bunVals, value)
}

// flushBurst ends a burst: buffered broadcasts first (their RB type-1
// traffic lands in the pack buffers), then one pack per destination.
func (n *Node) flushBurst(raw, wctx sim.Context) {
	for len(n.bunTags) > 0 {
		n.flushBroadcasts(wctx)
	}
	n.flushPacks(raw)
	clear(n.echoSeen)
}

// flushBroadcasts drains the bundle buffer into ProtoBundle reliable
// broadcasts of at most maxBundleItems each. A lone buffered broadcast
// goes out in its native v1 shape.
func (n *Node) flushBroadcasts(wctx sim.Context) {
	tags, vals := n.bunTags, n.bunVals
	n.bunTags, n.bunVals = n.bunTags[:0], n.bunVals[:0]
	if len(tags) == 1 {
		n.rbEng.Broadcast(wctx, tags[0], vals[0])
		return
	}
	for len(tags) > 0 {
		k := len(tags)
		if k > maxBundleItems {
			k = maxBundleItems
		}
		bt := proto.Tag{Proto: proto.ProtoBundle, A: n.bunSeq}
		n.bunSeq++
		n.rbEng.Broadcast(wctx, bt, proto.EncodeBundle(tags[:k], vals[:k]))
		tags, vals = tags[k:], vals[k:]
	}
}

// flushPacks sends the buffered per-destination payloads. Tampering
// already ran per item, so packs go out on the raw context; a lone
// payload goes out bare. The per-destination buffers are kept across
// bursts; a pack gets its own exact-size copy, since it outlives the
// burst (the scheduler or the outbox holds it).
func (n *Node) flushPacks(raw sim.Context) {
	order := n.packOrder
	n.packOrder = n.packOrder[:0]
	for _, to := range order {
		i := int(to) - 1
		items := n.packBuf[i]
		p := items[0]
		if len(items) > 1 {
			p = proto.Pack{Items: append(make([]sim.Payload, 0, len(items)), items...)}
		}
		clear(items)
		n.packBuf[i] = items[:0]
		raw.Send(to, p)
	}
}

// deliverPack unpacks a received Pack and runs each item through the
// standard single-payload delivery path (RB handling, DMM filtering and
// parked-event draining per item). Nested packs are dropped.
func (n *Node) deliverPack(ctx sim.Context, m sim.Message, pk proto.Pack) {
	for _, item := range pk.Items {
		if _, nested := item.(proto.Pack); nested {
			continue
		}
		// Re-check per item: an earlier item may have shunned the sender.
		if n.dmmSt.IsFaulty(m.From) {
			return
		}
		im := m // inherit From/To/Seq/SentAt from the carrier
		im.Payload = item
		if !n.rbEng.Handle(ctx, im) {
			n.dispatchDirect(ctx, im)
		}
		n.drain(ctx)
	}
}
