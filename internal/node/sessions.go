package node

import (
	"fmt"
	"math/rand"

	"svssba/internal/core"
	"svssba/internal/obs"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Sessions. A node hosts concurrent protocol stacks, one per *scope* —
// an opaque uint64 its Config.Service driver assigns (internal/acs packs
// a session id and a slot into it; Agreement uses scope 0 alone). Every
// payload a scoped stack sends is wrapped in a proto.Scoped envelope;
// inbound envelopes route to the scope's stack, opening it through the
// driver whenever the scope has no live stack.
// Scopes retire independently: after each delivery burst the node asks
// the driver which touched scopes are done and releases exactly those
// stacks. A retired scope leaves nothing behind — the node's session
// table holds live scopes only — so whether a scope is finished is the
// driver's knowledge alone: late traffic asks the driver again, and a
// refusal drops the payload before its inner payload is even decoded.
//
// All driver callbacks run on the node's one delivery goroutine, its
// ingress loop, so a callback must never block. Callbacks may touch any
// session and stack of the node freely, and open a sibling scope
// synchronously with Node.OpenScope.

// ServiceDriver plugs a protocol composition into a node's delivery
// loop.
type ServiceDriver interface {
	// Open builds the protocol stack for a scope: create it, wire
	// handlers/observers, but send nothing — the node binds the stack and
	// runs its Init before traffic can flow. It is called for any scope
	// without a live stack, including one that already retired, and
	// returning nil refuses the scope: the node stores nothing and drops
	// the traffic that asked. A driver must refuse a scope it opened
	// before — a second stack for it would restart a protocol instance
	// this process already took part in.
	Open(s *Session) *core.Stack
	// Opened runs after the scope's stack is bound and initialized;
	// first sends (e.g. a proposal broadcast) belong here.
	Opened(s *Session)
	// MayRetire reports whether a touched scope's stack can be released.
	// Called after each delivery burst for every scope that saw traffic
	// in it.
	MayRetire(s *Session) bool
}

// Session is one scoped protocol stack hosted by a node.
// All methods are confined to the node's delivery goroutine.
type Session struct {
	scope   uint64
	n       *Node
	ctx     *scopedCtx
	stack   *core.Stack
	touched bool
	retired bool
}

// Scope returns the session's scope id.
func (s *Session) Scope() uint64 { return s.scope }

// Stack returns the session's protocol stack (nil once retired).
func (s *Session) Stack() *core.Stack { return s.stack }

// Ctx returns the session's scoped send context: everything sent
// through it crosses the wire inside a proto.Scoped envelope carrying
// this session's scope. Like the stack, it is released when the scope
// retires and nil from then on.
func (s *Session) Ctx() sim.Context {
	if s.ctx == nil {
		return nil
	}
	return s.ctx
}

// Retired reports whether the scope's stack was released.
func (s *Session) Retired() bool { return s.retired }

// Touch marks the session for the end-of-burst retirement check. The
// node touches a session automatically when delivering to it; a driver
// must Touch any *other* session it mutates during a callback (e.g.
// proposing into a sibling scope), or that scope's retirement waits for
// its next inbound traffic.
func (s *Session) Touch() {
	if s.touched || s.retired {
		return
	}
	s.touched = true
	s.n.touchedSessions = append(s.n.touchedSessions, s)
}

// scopedCtx wraps the node's runCtx so every send is wrapped in the
// session's scope envelope. The outbox and wire-v2 burst coalescing
// compose underneath: envelopes from many scopes share one outbox group
// (they all carry the proto.KindScoped kind) and leave as one Pack
// frame.
type scopedCtx struct {
	scope uint64
	rc    *runCtx
}

var _ sim.Context = (*scopedCtx)(nil)

func (c *scopedCtx) N() int           { return c.rc.N() }
func (c *scopedCtx) T() int           { return c.rc.T() }
func (c *scopedCtx) Rand() *rand.Rand { return c.rc.Rand() }
func (c *scopedCtx) Now() int64       { return c.rc.Now() }

func (c *scopedCtx) Send(to sim.ProcID, p sim.Payload) {
	m, ok := p.(proto.Marshaler)
	if !ok {
		n := c.rc.n
		n.noteErr(fmt.Errorf("node %d: scope %d: payload %q is not wire-encodable", n.cfg.ID, c.scope, p.Kind()))
		return
	}
	c.rc.Send(to, proto.Scoped{Scope: c.scope, Inner: m})
}

// OpenScope finds the live session for scope or creates it, driving the
// ServiceDriver's Open/Opened on a miss; nil when the driver refused the
// scope. Delivery goroutine only — drivers call it from their
// callbacks, everyone else through Inject.
func (n *Node) OpenScope(scope uint64) *Session {
	if s, ok := n.sessions[scope]; ok {
		return s
	}
	s := &Session{scope: scope, n: n, ctx: &scopedCtx{scope: scope, rc: n.ctx}}
	// Entered before Open so a re-entrant open of the same scope (the
	// driver opening siblings from Open) finds it instead of recursing.
	n.sessions[scope] = s
	st := n.cfg.Service.Open(s)
	if st == nil {
		delete(n.sessions, scope)
		return nil
	}
	s.stack = st
	if h := n.obsHooks(scope); h != nil {
		st.SetTraceHooks(h)
	}
	n.scopesLive.Add(1)
	n.cfg.Trace.Record(obs.KindScopeOpen, scope, 0, 0, 0, 0)
	st.Node.Init(s.ctx)
	s.Touch()
	n.cfg.Service.Opened(s)
	return s
}

// Inject queues fn for the node's delivery goroutine, where it runs
// before the next burst's deliveries, followed by that burst's outbox
// flush and retirement pass: the only safe way into driver and session
// state from outside. It never blocks. It fails before Start and once
// the node stopped; an accepted fn is guaranteed to run exactly once,
// even if the node stops in between.
func (n *Node) Inject(fn func()) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != stateRunning || n.ctlClosed {
		return fmt.Errorf("node %d: not running", n.cfg.ID)
	}
	n.ctl = append(n.ctl, fn)
	select {
	case n.kick <- struct{}{}:
	default: // a wakeup is already pending
	}
	return nil
}

// takeCtl claims the control queue (delivery goroutine only). The
// previously claimed slice becomes the new empty queue, so steady state
// allocates nothing.
func (n *Node) takeCtl() []func() {
	clear(n.spareCtl)
	n.mu.Lock()
	thunks := n.ctl
	n.ctl = n.spareCtl[:0]
	n.mu.Unlock()
	n.spareCtl = thunks
	return thunks
}

// deliver hands one scope envelope to its session: find or open the
// scope's stack, and only then pay for the inner decode.
func (n *Node) deliver(from sim.ProcID, sc proto.Scoped) {
	sess := n.OpenScope(sc.Scope)
	if sess == nil {
		n.sh.countLatePayload()
		return
	}
	inner, err := n.codec.Decode(sc.Raw)
	if err != nil {
		n.noteDecodeErr(fmt.Errorf("node %d: from %d: scope %d: %w", n.cfg.ID, from, sc.Scope, err))
		return
	}
	if _, nested := inner.(proto.Scoped); nested {
		n.noteDecodeErr(fmt.Errorf("node %d: from %d: nested scope envelope in scope %d", n.cfg.ID, from, sc.Scope))
		return
	}
	n.sh.countRecvPayload(inner.Kind(), proto.FrameSize(sc))
	sess.Touch()
	sess.stack.Node.Deliver(sess.ctx, sim.Message{
		From:    from,
		To:      n.cfg.ID,
		Payload: inner,
		SentAt:  n.ctx.Now(),
	})
}

// retireTouched is the end-of-burst retirement pass: every session the
// burst touched is offered to the driver for retirement. Retiring
// releases the stack and drops the scope from the session table; late
// traffic for it goes back to the driver's Open.
func (n *Node) retireTouched() {
	drv := n.cfg.Service
	// Index loop: MayRetire may Touch further sessions (e.g. a completed
	// composition touching its siblings), growing the slice mid-pass.
	for i := 0; i < len(n.touchedSessions); i++ {
		s := n.touchedSessions[i]
		s.touched = false
		if s.retired || s.stack == nil {
			continue
		}
		if drv.MayRetire(s) {
			s.stack.Retire()
			s.stack, s.ctx = nil, nil
			s.retired = true
			delete(n.sessions, s.scope)
			n.scopesLive.Add(-1)
			n.scopesRetired.Add(1)
			n.cfg.Trace.Record(obs.KindScopeRetire, s.scope, 0, 0, 0, 0)
		}
	}
	n.touchedSessions = n.touchedSessions[:0]
}

// ServiceCounts aggregates a node's session state.
type ServiceCounts struct {
	// Live counts the scopes whose stacks are up; Retired counts the
	// retirements so far. A scope the driver refused is neither — the
	// traffic that asked for it counts in Stats.DroppedLatePayloads.
	Live, Retired int
	// State sums StateCounts over the live stacks — the number that must
	// return to baseline when sessions retire.
	State core.StateCounts
}

// ServiceCounts snapshots the session table. The snapshot runs on the
// delivery goroutine (an Inject thunk), so it is consistent with a burst
// boundary; once the node stopped it reads directly. The bool is always
// true: every node hosts a driver.
func (n *Node) ServiceCounts() (ServiceCounts, bool) {
	var out ServiceCounts
	got := make(chan struct{})
	if err := n.Inject(func() { out = n.countsNow(); close(got) }); err == nil {
		<-got
	} else {
		// Not running: wait out the delivery goroutine — accepted thunks
		// run before done closes — then read the table directly.
		n.mu.Lock()
		done := n.done
		n.mu.Unlock()
		if done != nil {
			<-done
		}
		out = n.countsNow()
	}
	out.Retired = int(n.scopesRetired.Load())
	return out, true
}

// countsNow sums the session table (delivery goroutine, or stopped
// node).
func (n *Node) countsNow() ServiceCounts {
	out := ServiceCounts{Live: len(n.sessions)}
	for _, s := range n.sessions {
		out.State.Add(s.stack.StateCounts())
	}
	return out
}
