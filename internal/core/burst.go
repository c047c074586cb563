package core

import (
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// The wire (v2, the only one) shapes a node's outgoing traffic around
// delivery bursts. A burst is one Deliver (or Init) call: every direct
// payload the burst produces for one destination is coalesced into a
// single proto.Pack, and every logical broadcast it produces is
// coalesced into ProtoBundle reliable broadcasts, so the RB echo storm
// is paid once per burst instead of once per logical message. Nothing is
// deduplicated on the way out: the engines' one-shot guards make honest
// duplicate echoes impossible, and receivers ignore a duplicate anyway.
//
// Bundle echoes carry digests: the RB engine echoes a bundle body of 32
// bytes or more by its SHA-256 digest, so the body crosses each link
// once (in the origin's type 1) and reaches any process the origin
// skipped by pull: one that accepts the digest without the body asks
// t+1 of the peers that echoed it, and any t+1 of those include an
// honest holder (see package rb). A bundle is accepted only with a
// body hashing to the accepted digest, so onRBAccept still receives the
// body. The node never pushes a bundle: in a fault-free run every push
// reached a peer that held the body already (about a fifth of an n = 7
// coin round's bytes), while a pull costs only where a body is missing.
//
// Liveness of the pull: an honest holder keeps a bundle body until
// every peer echoed its digest or was served, or until Retire resets
// the RB engine. Retire runs only after the stack's agreement halted
// on n−t DECIDEs (see the end of this header), and a pooled acs plane,
// whose bundles carry the dealings, retires only after every agreement
// of its session did (acs.planeDone). From then on no honest process
// needs the body, so no laggard's pull goes unanswered while it still
// matters.
//
// Beyond that, coalescing changes message shape, not protocol logic:
// every bundle item is filtered, observed and dispatched through the same
// per-event path as a lone broadcast, and every pack item through the
// same per-payload path as a lone direct message. The one semantic
// difference from the paper's one-message-per-payload shape is that per-
// (origin, tag) broadcast uniqueness is enforced by the upper layers'
// first-wins guards rather than by RB itself (a Byzantine origin could
// re-announce a tag across two bundles); every handler in the stack
// carries such a guard.
//
// # Open bundles
//
// A burst is one delivery, so cutting a bundle at the end of every burst
// that broadcast anything makes the round's cost follow its deliveries:
// each bundle pays n type 1s and 2n(n−1) digest echoes whatever it
// carries (an n = 7 coin round cut 9,009 bundles of ~10 items). So a
// process cuts bundles only while fewer than maxOpenBundles (k) of its
// own are unaccepted here. Broadcasts issued while k are open stay in
// the buffer, in issue order. The burst in which onRBAccept sees one of
// the process's own bundles accepted frees a slot, and its end flushes
// the whole buffer in bundles of at most maxBundleItems, each opening a
// slot. A lone buffered broadcast still goes out as a plain RB
// broadcast and opens nothing. This is Dumbo-NG's rule: a sender's next
// batch goes once its last one completes.
//
// Safety: a bundle is only an RB value. Holding a broadcast delays its
// type 1, which the asynchronous adversary could already delay by as
// much, and every protocol in the stack is correct under any delay. The
// items keep their order and their first-wins guards, which run at the
// receivers, and nothing is dropped or duplicated.
//
// Liveness: by RB validity every honest process, the origin included,
// accepts an honest origin's bundle. The accept needs only the RB
// engines' echoes, which no upper layer holds back, so no wait of the
// stack can feed back into it; t peers that withhold their echoes leave
// the n−t honest ones, which suffice. Every open slot is freed, and the
// buffer drains at the end of that burst. It holds at most what the
// stack issued since the last flush.
//
// k = 2. It was chosen on the Lamport depth at the coin output of the
// n = 7 round (seeds 1 and 2 under the FIFO scheduler, where depth counts
// asynchronous rounds): 32 with no hold, 41 with k = 1 (+28 %) and 38
// with k = 2 (+19 %). Only k = 2 stays within the +25 % the rule may
// cost in latency. It sends 33.1k messages per fault-free round where
// k = 1 sends 30.5k and no hold 971.7k.
//
// Retire drops held broadcasts with the rest of the node's state and
// never flushes them. That is harmless: Stack.Retire runs only after the
// local agreement halted on n−t matching DECIDEs, and from then on
// every honest process decides through DECIDE amplification without
// anything further from this one. DECIDE itself is a direct send, so it
// is never held.

// maxBundleItems bounds logical broadcasts per ProtoBundle instance, so
// one bundle body (the RB value that gets echoed and counted) stays
// small even during reveal cascades.
const maxBundleItems = 256

// maxOpenBundles is k: a process cuts no bundle while this many of its
// own are broadcast and not yet accepted here (see the header).
const maxOpenBundles = 2

// burstCtx is the context a node's engines send through: tampering is
// applied per logical payload against the raw context (so Byzantine
// behaviors see, hold and release each payload on its own), then,
// within a burst, the payload is buffered into the per-destination pack.
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

// packAdd buffers p for destination to.
func (n *Node) packAdd(ctx sim.Context, to sim.ProcID, p sim.Payload) {
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
	n.flushBroadcasts(wctx)
	n.flushPacks(raw)
}

// flushBroadcasts drains the bundle buffer into ProtoBundle reliable
// broadcasts of at most maxBundleItems each, unless maxOpenBundles of
// this process's bundles are unaccepted: then it leaves the buffer as
// it is. A lone buffered broadcast goes out as a plain RB broadcast and
// opens nothing.
func (n *Node) flushBroadcasts(wctx sim.Context) {
	tags, vals := n.bunTags, n.bunVals
	if len(tags) == 0 || n.bunOpen >= maxOpenBundles {
		return
	}
	n.bunTags, n.bunVals = tags[:0], vals[:0]
	if len(tags) == 1 {
		n.rbEng.Broadcast(wctx, tags[0], vals[0])
	} else {
		for i := 0; i < len(tags); i += maxBundleItems {
			j := min(i+maxBundleItems, len(tags))
			bt := proto.Tag{Proto: proto.ProtoBundle, A: n.bunSeq}
			n.bunSeq++
			n.bunOpen++
			n.rbEng.Broadcast(wctx, bt, proto.EncodeBundle(tags[i:j], vals[i:j]))
		}
	}
	clear(vals) // sent: the buffer keeps no reference
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
