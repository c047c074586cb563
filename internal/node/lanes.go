package node

import (
	"fmt"
	"math/rand"
	"sync"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// Execution lanes. A node's work runs on k lanes (Config.Lanes; one
// unless a service node asks for more), one goroutine per lane. Lane 0
// is the node's ingress goroutine: it owns the transport's inbox, takes
// it whole, validates and outer-decodes each frame, and delivers lane
// 0's payloads itself; a scope envelope for another lane goes onto that
// lane's bounded ring, which the lane's worker goroutine drains. Each
// lane owns the sessions whose scopes hash to it, its own coalescing
// outbox, randomness and stat shard. A scope lives its whole life on
// one lane, so every scoped stack still runs strictly single-threaded —
// the concurrency is only ever *between* scopes, which is what makes
// the engines safe without any locking of their own. A single-stack
// node is lane 0 hosting its one unscoped stack.
//
// Lane 0 never goes through a ring, so the ingress goroutine never
// waits on its own lane. It does wait on another lane's full ring
// (backpressure), and no worker ever waits on lane 0.
//
// Ordering: every lane delivers its payloads in inbox order, so
// per-scope delivery order is the arrival order at any lane count. With
// k > 1 lanes the interleaving between scopes on different lanes is
// real-time scheduled and not reproducible; the protocol outcomes
// (agreement, identical subsets across nodes, value integrity) are the
// same at every lane count, which the module's TestServiceLanesMatrix
// checks at 1, 2 and 4 lanes.
//
// Drivers hosting multi-lane nodes must be lane-safe: Open/Opened/
// MayRetire run on the owning scope's lane goroutine, so any state a
// driver shares across scopes needs its own synchronization (the acs
// driver guards its session table this way).
const (
	// laneRingCap bounds one lane's inbound payload ring. A full ring
	// backpressures the ingress (blocking, counted in RingWaits) instead
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

// lane is one execution lane of a node: the sessions whose scopes hash
// here (or, on a single-stack node, lane 0's one stack), an unbounded
// control queue (Inject thunks, cross-lane scope starts) and, on lanes
// 1..k−1, a bounded payload ring fed by the ingress. stack, sessions,
// touchedSessions, spareCtl and ctx are confined to the lane's goroutine.
type lane struct {
	idx   int
	n     *Node
	ctx   *runCtx
	sh    *statShard
	stack *core.Stack // single-stack node only (lane 0)

	sessions        map[uint64]*Session
	touchedSessions []*Session
	spareCtl        []func() // lane 0: the last claimed control queue

	// kick wakes lane 0's ingress loop when a control thunk is queued
	// (capacity 1; nil on the other lanes, whose workers wait on nempty).
	kick chan struct{}

	mu        sync.Mutex
	nfull     *sync.Cond // ingress waits here while the ring is full
	nempty    *sync.Cond // worker waits here while there is nothing to do
	ring      []laneItem
	ctl       []func()
	closed    bool
	waits     int64 // ingress wait episodes on a full ring (backpressure)
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
	if idx == 0 {
		ln.kick = make(chan struct{}, 1)
	}
	ln.nfull = sync.NewCond(&ln.mu)
	ln.nempty = sync.NewCond(&ln.mu)
	return ln
}

// push hands one routed payload to the lane (ingress goroutine only).
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

// enqueueCtl queues fn for the lane's goroutine without blocking. The
// control queue is unbounded and drained even at shutdown, so an
// accepted thunk is guaranteed to run — the Inject contract.
func (ln *lane) enqueueCtl(fn func()) error {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return fmt.Errorf("node %d: lane %d closed", ln.n.cfg.ID, ln.idx)
	}
	ln.ctl = append(ln.ctl, fn)
	ln.nempty.Signal()
	ln.mu.Unlock()
	select {
	case ln.kick <- struct{}{}:
	default: // a wakeup is already pending, or this is a worker lane
	}
	return nil
}

// takeCtl claims lane 0's control queue (ingress goroutine only). The
// previously claimed slice becomes the new empty queue, so steady state
// allocates nothing.
func (ln *lane) takeCtl() []func() {
	clear(ln.spareCtl)
	ln.mu.Lock()
	thunks := ln.ctl
	ln.ctl = ln.spareCtl[:0]
	ln.mu.Unlock()
	ln.spareCtl = thunks
	return thunks
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
		// The ring just emptied; wake an ingress blocked on it.
		ln.nfull.Broadcast()
	}
	ln.mu.Unlock()
	return items, thunks, closed
}

// close wakes everyone; the worker drains its control queue and exits,
// the ingress stops pushing.
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

// loop is the worker goroutine of lanes 1..k−1: claim a burst, run
// control thunks, deliver payloads to the lane's scoped stacks, end the
// burst.
func (ln *lane) loop(wg *sync.WaitGroup) {
	defer wg.Done()
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
			ln.endBurst()
			return
		}
		for i := range items {
			ln.deliver(items[i].from, items[i].sc)
			items[i] = laneItem{} // release the frame buffer
		}
		ln.endBurst()
	}
}

// endBurst closes one of the lane's delivery bursts: flush the outbox,
// then run the retirement pass — over the one stack on a single-stack
// node, over the scopes the burst touched otherwise.
func (ln *lane) endBurst() {
	ln.ctx.flushOutbox()
	if ln.stack != nil {
		ln.n.maybeRetire(ln.stack)
		return
	}
	ln.retireTouched()
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
// ingress goroutine, like OpenScope), enqueued onto the owning lane
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

// newLaneCtx builds one lane's send context. Lane 0 uses the node's
// configured seed exactly; further lanes derive theirs from it.
func (n *Node) newLaneCtx(idx int, sh *statShard) *runCtx {
	ctx := &runCtx{
		n:   n,
		tr:  n.tr,
		sh:  sh,
		rnd: rand.New(rand.NewSource(n.cfg.Seed + int64(idx))),
		ob:  newOutbox(n.cfg.N),
	}
	if bw, ok := n.tr.(transport.Borrower); ok {
		ctx.bw = bw
	}
	return ctx
}
