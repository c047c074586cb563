// Package sim provides the asynchronous message-passing substrate the
// protocols run on: an n-process system with private channels, unbounded
// but guaranteed-eventual message delivery, and an adversarially
// controllable scheduler — the model of the paper's introduction.
//
// Network is the one runtime here: a deterministic, seeded,
// single-goroutine event loop with a virtual clock. The scheduler chooses
// the next message to deliver, which models arbitrary asynchrony while
// keeping runs exactly reproducible; the experiments, the scenario
// matrix and the parity digests all run on it. The package uses no
// wall clock, goroutines, locks or I/O (purity_test.go keeps it so). The
// same Handlers run live on internal/node, behind a real transport.
package sim

import (
	"fmt"
	"math/rand"
)

// ProcID identifies a process; the paper indexes processes 1..n.
type ProcID int

// Payload is the content of a message. Kind names the message type for
// metrics and codec dispatch; Size is the approximate wire size in bytes
// (must match the binary encoding, which codec tests verify).
type Payload interface {
	Kind() string
	Size() int
}

// Message is a point-to-point message on a private channel.
type Message struct {
	From, To ProcID
	Payload  Payload
	Seq      uint64 // global send sequence number (deterministic)
	SentAt   int64  // virtual send time
	// Depth is the message's Lamport depth: its sender's depth at the
	// send plus one (see Network.Depth). Zero outside the simulator.
	Depth int64
}

// Context is the interface a process uses to interact with the system
// during Init or Deliver. Implementations are not safe for use outside the
// delivering goroutine.
type Context interface {
	// Send queues a message to the given process (sending to self is
	// allowed and goes through the scheduler like any other message).
	Send(to ProcID, p Payload)
	// N returns the number of processes in the system.
	N() int
	// T returns the resilience bound (maximum tolerated faults).
	T() int
	// Now returns the current virtual time.
	Now() int64
	// Rand returns this process's deterministic random source.
	Rand() *rand.Rand
}

// Handler is a process: a deterministic state machine driven by message
// deliveries. Both honest protocol stacks and Byzantine behaviours
// implement it.
type Handler interface {
	// ID returns the process identifier (1..n).
	ID() ProcID
	// Init runs once before any delivery; processes send initial messages.
	Init(ctx Context)
	// Deliver handles one message.
	Deliver(ctx Context, msg Message)
}

// Scheduler decides the delivery order of pending messages. It fully
// controls asynchrony: any scheduler that eventually returns every
// enqueued message is a valid asynchronous adversary.
type Scheduler interface {
	// Enqueue adds a pending message at virtual time now.
	Enqueue(m Message, now int64)
	// Next pops the next message to deliver and the virtual time of
	// delivery. ok is false when nothing is deliverable.
	Next(now int64) (m Message, at int64, ok bool)
	// Len returns the number of pending messages.
	Len() int
}

// Stats is a snapshot of message-level metrics for a run.
type Stats struct {
	SentByKind  map[string]int64
	BytesByKind map[string]int64
	Sent        int64
	Delivered   int64
	Dropped     int64
}

func newStats() *Stats {
	return &Stats{
		SentByKind:  make(map[string]int64),
		BytesByKind: make(map[string]int64),
	}
}

// TotalBytes returns the sum of bytes across kinds.
func (s *Stats) TotalBytes() int64 {
	var total int64
	for _, b := range s.BytesByKind {
		total += b
	}
	return total
}

// Network is the deterministic event-loop runtime.
//
// Storage is dense: processes, random sources and crash flags live in
// slices indexed by ProcID (1..n; index 0 unused), and per-kind traffic
// counters live in slices indexed by interned kind IDs. Send and Step
// run up to the 500M-delivery cap per experiment, so the hot path does
// no map writes at all.
type Network struct {
	n, t      int
	procs     []Handler
	ctxs      []Context // each process's context, boxed once
	sched     Scheduler
	rands     []*rand.Rand
	now       int64
	seq       uint64
	crashed   []bool
	depth     []int64 // per process: the largest Depth delivered to it
	onDeliver []func(Message)
	inited    bool
	nRegs     int

	// Counters (see Stats for the snapshot view).
	sent, delivered, dropped int64
	kindIDs                  map[string]int
	kindNames                []string
	sentByKind               []int64
	bytesByKind              []int64
	// One-slot intern cache: consecutive sends are overwhelmingly of the
	// same kind, and kind strings are constants, so the == below is
	// usually a pointer comparison.
	lastKind   string
	lastKindID int
}

// NetworkOption configures a Network.
type NetworkOption interface{ apply(*Network) }

type schedulerOption struct{ s Scheduler }

func (o schedulerOption) apply(n *Network) { n.sched = o.s }

// WithScheduler selects the delivery scheduler (default: RandomScheduler).
func WithScheduler(s Scheduler) NetworkOption { return schedulerOption{s: s} }

type deliverHookOption struct{ fn func(Message) }

func (o deliverHookOption) apply(n *Network) {
	n.onDeliver = append(n.onDeliver, o.fn)
}

// WithDeliverHook registers a hook invoked on every delivery (tracing).
func WithDeliverHook(fn func(Message)) NetworkOption {
	return deliverHookOption{fn: fn}
}

// NewNetwork creates a system of n processes tolerating t faults, seeded
// deterministically. Handlers are registered with Register before Run.
func NewNetwork(n, t int, seed int64, opts ...NetworkOption) *Network {
	nw := &Network{
		n:          n,
		t:          t,
		procs:      make([]Handler, n+1),
		ctxs:       make([]Context, n+1),
		rands:      make([]*rand.Rand, n+1),
		crashed:    make([]bool, n+1),
		depth:      make([]int64, n+1),
		kindIDs:    make(map[string]int, 16),
		lastKindID: -1,
	}
	master := rand.New(rand.NewSource(seed))
	for p := 1; p <= n; p++ {
		nw.rands[p] = rand.New(rand.NewSource(master.Int63()))
		nw.ctxs[p] = procCtx{nw: nw, id: ProcID(p)}
	}
	for _, o := range opts {
		o.apply(nw)
	}
	if nw.sched == nil {
		nw.sched = NewRandomScheduler(master.Int63())
	}
	return nw
}

// Register adds a process. All n processes must be registered before Run.
func (nw *Network) Register(h Handler) error {
	id := h.ID()
	if id < 1 || int(id) > nw.n {
		return fmt.Errorf("sim: process id %d out of range 1..%d", id, nw.n)
	}
	if nw.procs[id] != nil {
		return fmt.Errorf("sim: process %d registered twice", id)
	}
	nw.procs[id] = h
	nw.nRegs++
	return nil
}

// N returns the number of processes.
func (nw *Network) N() int { return nw.n }

// T returns the resilience bound.
func (nw *Network) T() int { return nw.t }

// Now returns the current virtual time.
func (nw *Network) Now() int64 { return nw.now }

// Stats returns a snapshot of the message counters, materializing the
// per-kind maps from the interned slice counters.
func (nw *Network) Stats() *Stats {
	s := newStats()
	s.Sent, s.Delivered, s.Dropped = nw.sent, nw.delivered, nw.dropped
	for id, name := range nw.kindNames {
		s.SentByKind[name] = nw.sentByKind[id]
		s.BytesByKind[name] = nw.bytesByKind[id]
	}
	return s
}

// Depth returns process p's Lamport depth: the longest causal chain of
// messages delivered to it so far, counting from the initial sends
// (depth 1). A message carries its sender's depth plus one, and a
// delivery raises the receiver's depth to the message's. It is the
// simulator's latency measure in asynchronous rounds: VirtualTime
// advances by at least one per delivery, so it counts work, not causal
// distance.
func (nw *Network) Depth(p ProcID) int64 {
	if p < 1 || int(p) > nw.n {
		return 0
	}
	return nw.depth[p]
}

// Crash marks a process as crashed: all of its pending and future traffic
// (in either direction) is dropped and it receives no more deliveries.
func (nw *Network) Crash(p ProcID) {
	if p >= 1 && int(p) <= nw.n {
		nw.crashed[p] = true
	}
}

// kindID interns a payload kind, returning its dense counter index.
func (nw *Network) kindID(kind string) int {
	if kind == nw.lastKind && nw.lastKindID >= 0 {
		return nw.lastKindID
	}
	id, ok := nw.kindIDs[kind]
	if !ok {
		id = len(nw.kindNames)
		nw.kindIDs[kind] = id
		nw.kindNames = append(nw.kindNames, kind)
		nw.sentByKind = append(nw.sentByKind, 0)
		nw.bytesByKind = append(nw.bytesByKind, 0)
	}
	nw.lastKind, nw.lastKindID = kind, id
	return id
}

// procCtx adapts the network to the Context seen by one process.
type procCtx struct {
	nw *Network
	id ProcID
}

var _ Context = procCtx{}

func (c procCtx) N() int           { return c.nw.n }
func (c procCtx) T() int           { return c.nw.t }
func (c procCtx) Now() int64       { return c.nw.now }
func (c procCtx) Rand() *rand.Rand { return c.nw.rands[c.id] }

func (c procCtx) Send(to ProcID, p Payload) {
	nw := c.nw
	nw.seq++
	nw.sent++
	kid := nw.kindID(p.Kind())
	nw.sentByKind[kid]++
	nw.bytesByKind[kid] += int64(p.Size())
	if to < 1 || int(to) > nw.n || nw.crashed[c.id] || nw.crashed[to] {
		nw.dropped++
		return
	}
	nw.sched.Enqueue(Message{
		From:    c.id,
		To:      to,
		Payload: p,
		Seq:     nw.seq,
		SentAt:  nw.now,
		Depth:   nw.depth[c.id] + 1,
	}, nw.now)
}

// Init initializes all processes (idempotent; Run calls it if needed).
func (nw *Network) Init() error {
	if nw.inited {
		return nil
	}
	if nw.nRegs != nw.n {
		return fmt.Errorf("sim: %d of %d processes registered", nw.nRegs, nw.n)
	}
	nw.inited = true
	for p := 1; p <= nw.n; p++ {
		nw.procs[p].Init(nw.ctxs[p])
	}
	return nil
}

// Step delivers exactly one message. It reports whether a message was
// delivered (false means the network is quiescent).
func (nw *Network) Step() (bool, error) {
	if err := nw.Init(); err != nil {
		return false, err
	}
	for {
		m, at, ok := nw.sched.Next(nw.now)
		if !ok {
			return false, nil
		}
		if at > nw.now {
			nw.now = at
		} else {
			nw.now++
		}
		if nw.crashed[m.From] || nw.crashed[m.To] {
			nw.dropped++
			continue
		}
		nw.delivered++
		if m.Depth > nw.depth[m.To] {
			nw.depth[m.To] = m.Depth
		}
		for _, hook := range nw.onDeliver {
			hook(m)
		}
		nw.procs[m.To].Deliver(nw.ctxs[m.To], m)
		return true, nil
	}
}

// ErrStepLimit is returned by RunUntil when maxSteps deliveries happen
// without the condition holding.
type ErrStepLimit struct{ Steps int }

func (e ErrStepLimit) Error() string {
	return fmt.Sprintf("sim: step limit %d reached", e.Steps)
}

// Run delivers messages until the network is quiescent or maxSteps
// deliveries have happened. It returns the number of deliveries.
func (nw *Network) Run(maxSteps int) (int, error) {
	return nw.RunUntil(nil, maxSteps)
}

// RunUntil delivers messages until cond() holds (checked after every
// delivery), the network is quiescent, or maxSteps deliveries happen.
// A nil cond never holds. Exceeding maxSteps returns ErrStepLimit.
func (nw *Network) RunUntil(cond func() bool, maxSteps int) (int, error) {
	if err := nw.Init(); err != nil {
		return 0, err
	}
	if cond != nil && cond() {
		return 0, nil
	}
	steps := 0
	for steps < maxSteps {
		progressed, err := nw.Step()
		if err != nil {
			return steps, err
		}
		if !progressed {
			return steps, nil
		}
		steps++
		if cond != nil && cond() {
			return steps, nil
		}
	}
	return steps, ErrStepLimit{Steps: maxSteps}
}

// Quiescent reports whether no messages are pending.
func (nw *Network) Quiescent() bool { return nw.sched.Len() == 0 }

// Inject runs fn in process p's context (initializing the network first
// if needed). It is how external drivers — tests, experiment harnesses,
// the public API — invoke protocol entry points such as "start
// reconstruction" between deliveries.
func (nw *Network) Inject(p ProcID, fn func(ctx Context)) error {
	if err := nw.Init(); err != nil {
		return err
	}
	if p < 1 || int(p) > nw.n {
		return fmt.Errorf("sim: inject into unknown process %d", p)
	}
	fn(nw.ctxs[p])
	return nil
}
