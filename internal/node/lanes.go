package node

import (
	"fmt"
	"math/rand"
	"sync"

	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// Multi-lane service runtime. With Config.Lanes > 1 a service-mode node
// shards its scoped stacks across per-scope execution lanes: a router
// goroutine owns the transport's inbox, shallow-decodes each
// frame's scope envelopes, and routes every payload to the lane its
// scope hashes to; each lane is one worker goroutine owning the
// sessions pinned to it, its own coalescing outbox, randomness and stat
// shard. A scope lives its whole life on one lane, so every scoped
// stack still runs strictly single-threaded — the concurrency is only
// ever *between* scopes, which is what makes the engines safe without
// any locking of their own.
//
// The determinism contract: Lanes == 1 runs the exact single-goroutine
// delivery loop the node always had (same goroutine structure, same
// randomness, same flush points — byte-identical schedules). Lanes > 1
// trades the global delivery order between scopes for parallelism;
// per-scope delivery order and the protocol outcomes (agreement,
// subset equality across nodes) are unchanged.
//
// Drivers hosting multi-lane nodes must be lane-safe: Open/Opened/
// MayRetire run on the owning scope's lane goroutine, so any state a
// driver shares across scopes needs its own synchronization (the acs
// driver guards its session table this way).
const (
	// laneRingCap bounds one lane's inbound payload ring. A full ring
	// backpressures the router (blocking, counted in RingWaits) instead
	// of dropping: drops only ever happen at shutdown, when undelivered
	// ring items are discarded like any other in-flight traffic.
	laneRingCap = 4096
	// maxLanes caps the GOMAXPROCS-derived default (explicit Config.Lanes
	// may exceed it).
	maxLanes = 8
)

// laneItem is one routed payload: the validated sender plus the
// shallow-decoded scope envelope (Raw aliases the immutable frame
// buffer; the inner decode happens on the lane).
type laneItem struct {
	from sim.ProcID
	sc   proto.Scoped
}

// lane is one execution lane of a service-mode node: a bounded payload
// ring fed by the router, an unbounded control queue (Inject thunks,
// cross-lane scope starts), and the sessions whose scopes hash here.
// sessions, touchedSessions and ctx are confined to the lane's worker
// goroutine (with Lanes == 1, to the node's single delivery goroutine).
type lane struct {
	idx int
	n   *Node
	ctx *runCtx
	sh  *statShard

	sessions        map[uint64]*Session
	touchedSessions []*Session

	mu        sync.Mutex
	nfull     *sync.Cond // router waits here while the ring is full
	nempty    *sync.Cond // worker waits here while there is nothing to do
	ring      []laneItem
	ctl       []func()
	closed    bool
	waits     int64 // router wait episodes on a full ring (backpressure)
	drops     int64 // ring items discarded at shutdown
	highWater int   // max ring occupancy observed
}

func newLane(n *Node, idx int, sh *statShard, ctx *runCtx) *lane {
	ln := &lane{
		idx:      idx,
		n:        n,
		ctx:      ctx,
		sh:       sh,
		sessions: make(map[uint64]*Session),
	}
	ln.nfull = sync.NewCond(&ln.mu)
	ln.nempty = sync.NewCond(&ln.mu)
	return ln
}

// push hands one routed payload to the lane (router goroutine only).
// Blocks while the ring is full — backpressure toward the transport —
// and only drops once the lane closed.
func (ln *lane) push(it laneItem) {
	ln.mu.Lock()
	waited := false
	for len(ln.ring) >= laneRingCap && !ln.closed {
		if !waited {
			waited = true
			ln.waits++
		}
		ln.nfull.Wait()
	}
	if ln.closed {
		ln.drops++
		ln.mu.Unlock()
		return
	}
	ln.ring = append(ln.ring, it)
	if len(ln.ring) > ln.highWater {
		ln.highWater = len(ln.ring)
	}
	ln.nempty.Signal()
	ln.mu.Unlock()
}

// enqueueCtl queues fn for the lane's worker. The control queue is
// unbounded and drained even at shutdown, so an accepted thunk is
// guaranteed to run — the multi-lane form of the Inject contract.
func (ln *lane) enqueueCtl(fn func()) error {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return fmt.Errorf("node %d: lane %d closed", ln.n.cfg.ID, ln.idx)
	}
	ln.ctl = append(ln.ctl, fn)
	ln.nempty.Signal()
	ln.mu.Unlock()
	return nil
}

// takeBatch blocks until the lane has work (or closed), then claims the
// whole pending ring and control queue in one swap — the lane's
// "delivery burst". The caller's previous buffers become the new empty
// queues, so steady state allocates nothing.
func (ln *lane) takeBatch(items []laneItem, thunks []func()) ([]laneItem, []func(), bool) {
	ln.mu.Lock()
	for len(ln.ring) == 0 && len(ln.ctl) == 0 && !ln.closed {
		ln.nempty.Wait()
	}
	items, ln.ring = ln.ring, items[:0]
	thunks, ln.ctl = ln.ctl, thunks[:0]
	closed := ln.closed
	if len(items) > 0 {
		// The ring just emptied; wake a router blocked on it.
		ln.nfull.Broadcast()
	}
	ln.mu.Unlock()
	return items, thunks, closed
}

// close wakes everyone; the worker drains its control queue and exits,
// the router stops pushing.
func (ln *lane) close() {
	ln.mu.Lock()
	ln.closed = true
	ln.nempty.Broadcast()
	ln.nfull.Broadcast()
	ln.mu.Unlock()
}

// ringStats snapshots the lane's backpressure counters.
func (ln *lane) ringStats() (waits, drops int64, highWater int) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return ln.waits, ln.drops, ln.highWater
}

// loop is the lane's worker goroutine: claim a burst, run control
// thunks, deliver payloads to the lane's scoped stacks, flush the
// lane's outbox, offer touched scopes for retirement.
func (ln *lane) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	n := ln.n
	var items []laneItem
	var thunks []func()
	for {
		var closed bool
		items, thunks, closed = ln.takeBatch(items, thunks)
		for _, fn := range thunks {
			fn()
		}
		if closed {
			if len(items) > 0 {
				ln.mu.Lock()
				ln.drops += int64(len(items))
				ln.mu.Unlock()
			}
			ln.ctx.flushOutbox()
			n.processScopeRetirementsOn(ln)
			return
		}
		for i := range items {
			n.deliverScopedOn(ln, items[i].from, items[i].sc)
			items[i] = laneItem{} // release the frame buffer
		}
		ln.ctx.flushOutbox()
		n.processScopeRetirementsOn(ln)
	}
}

// mix64 is the splitmix64 finalizer — a full-avalanche hash so
// adjacent scope keys spread across lanes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// laneFor maps a scope to its owning lane via the stable lane key.
func (n *Node) laneFor(scope uint64) *lane {
	if len(n.lanes) == 1 {
		return n.lanes[0]
	}
	key := scope
	if n.cfg.LaneKey != nil {
		key = n.cfg.LaneKey(scope)
	}
	return n.lanes[mix64(key)%uint64(len(n.lanes))]
}

// StartScope ensures the scope's stack exists or is about to: opened
// inline when the node runs one lane (caller must then be on the
// delivery goroutine, like OpenScope), enqueued onto the owning lane
// otherwise. This is the lane-safe way to open a scope from a driver
// callback running on a *different* scope's lane — the open happens
// asynchronously on the owner.
func (n *Node) StartScope(scope uint64) {
	ln := n.laneFor(scope)
	if len(n.lanes) == 1 {
		n.openScopeOn(ln, scope)
		return
	}
	_ = ln.enqueueCtl(func() { n.openScopeOn(ln, scope) })
}

// OpenPeer opens (or finds) another scope that shares this session's
// lane, synchronously, and returns its session (nil if the driver
// refused it). It is the lane-local
// companion of StartScope for scopes the driver *keys to the same
// lane* (same Config.LaneKey value — e.g. all slots of one acs
// session); asking for a scope that hashes elsewhere is a LaneKey
// contract violation and panics.
func (s *Session) OpenPeer(scope uint64) *Session {
	ln := s.n.laneFor(scope)
	if ln != s.ln {
		panic(fmt.Sprintf("node %d: OpenPeer(%#x) from scope %#x: scopes on different lanes (%d vs %d); LaneKey must pin them together",
			s.n.cfg.ID, scope, s.scope, ln.idx, s.ln.idx))
	}
	return s.n.openScopeOn(ln, scope)
}

// routerLoop is the multi-lane ingress goroutine: it owns the
// transport's inbox, takes it whole, validates and shallow-decodes each
// frame, and routes every scope envelope to its lane's ring.
func (n *Node) routerLoop(tr transport.Transport, stop chan struct{}) {
	ready := tr.Ready()
	var frames []transport.Frame
	for {
		select {
		case <-stop:
			return
		case <-ready:
		}
		var ok bool
		if frames, ok = tr.Take(frames); !ok {
			return
		}
		for i := range frames {
			n.routeFrame(frames[i])
			frames[i] = transport.Frame{} // release the frame buffer
		}
	}
}

// routeFrame decodes one inbound frame's envelopes (outer layer only —
// inner payloads decode on their lanes) and fans them out.
func (n *Node) routeFrame(f transport.Frame) {
	sh := n.routerShard
	if f.From < 1 || int(f.From) > n.cfg.N {
		n.noteDecodeErrSh(sh, fmt.Errorf("node %d: frame from unknown process %d", n.cfg.ID, f.From))
		return
	}
	if proto.IsBatch(f.Data) {
		bd, ok := n.codec.(batchDecoder)
		if !ok {
			n.noteDecodeErrSh(sh, fmt.Errorf("node %d: from %d: batch frame but codec has no batch format", n.cfg.ID, f.From))
			return
		}
		ps, err := bd.DecodeBatch(f.Data)
		if err != nil {
			n.noteDecodeErrSh(sh, fmt.Errorf("node %d: from %d: %w", n.cfg.ID, f.From, err))
			return
		}
		sh.countRecvFrameOnly(len(f.Data))
		for _, p := range ps {
			n.routePayload(f.From, p)
		}
		return
	}
	p, err := n.codec.Decode(f.Data)
	if err != nil {
		n.noteDecodeErrSh(sh, fmt.Errorf("node %d: from %d: %w", n.cfg.ID, f.From, err))
		return
	}
	sh.countRecvFrameOnly(len(f.Data))
	n.routePayload(f.From, p)
}

func (n *Node) routePayload(from sim.ProcID, p sim.Payload) {
	sc, ok := p.(proto.Scoped)
	if !ok {
		n.noteDecodeErrSh(n.routerShard, fmt.Errorf("node %d: from %d: unscoped payload %q in service mode", n.cfg.ID, from, p.Kind()))
		return
	}
	n.laneFor(sc.Scope).push(laneItem{from: from, sc: sc})
}

// newLaneCtx builds one lane's send context. Lane 0 uses the node's
// configured seed exactly (so a one-lane node is randomness-identical
// to the historical runtime); further lanes derive theirs from it.
func (n *Node) newLaneCtx(idx int, sh *statShard) *runCtx {
	ctx := &runCtx{
		n:   n,
		tr:  n.tr,
		sh:  sh,
		rnd: rand.New(rand.NewSource(n.cfg.Seed + int64(idx))),
	}
	if bw, ok := n.tr.(transport.Borrower); ok {
		ctx.bw = bw
	}
	if n.cfg.Batching {
		ctx.ob = newOutbox(n.cfg.N)
	}
	return ctx
}
