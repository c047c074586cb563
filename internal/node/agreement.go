package node

import (
	"fmt"
	"sync"
	"time"

	"svssba/internal/core"
	"svssba/internal/sim"
)

// Agreement is the ServiceDriver that hosts the paper's one binary
// agreement — ABA over the SVSS common coin — as scope 0 of a node: the
// single-agreement runs (svssba.RunCluster, cmd/node) are a one-scope
// service like any other. The node opens scope 0 when Propose runs or
// when a peer's first envelope arrives, whichever is first; either way
// Opened proposes the input exactly once. The stack retires once the
// agreement halted (n−t matching DECIDEs received — every honest process
// decides through DECIDE amplification without further help from this
// one), and from then on the driver refuses scope 0, so late traffic
// costs a dropped-late payload, not a decode. Every other scope is
// refused outright.
//
// Open/Opened/MayRetire run on the node's lane 0; the accessors are safe
// from any goroutine.
type Agreement struct {
	input  int
	opened bool // lane 0 only

	mu         sync.Mutex
	decided    bool
	value      int
	decideC    chan struct{}
	retired    bool
	counts     core.StateCounts // the stack's counts at retirement
	coinRounds uint64
}

var _ ServiceDriver = (*Agreement)(nil)

// NewAgreement returns the driver for one agreement proposing input.
func NewAgreement(input int) (*Agreement, error) {
	if input != 0 && input != 1 {
		return nil, fmt.Errorf("node: input %d is not binary", input)
	}
	return &Agreement{input: input, decideC: make(chan struct{})}, nil
}

// Open implements ServiceDriver: scope 0's wire-v2 stack, once.
func (a *Agreement) Open(s *Session) *core.Stack {
	if s.Scope() != 0 || a.opened {
		return nil
	}
	a.opened = true
	st := core.NewStack(s.n.cfg.ID, nil)
	st.EnableWireV2()
	st.OnDecide(func(_ sim.Context, v int) { a.recordDecision(v) })
	st.OnCoin(func(sim.Context, uint64, int) {
		a.mu.Lock()
		a.coinRounds++
		a.mu.Unlock()
	})
	return st
}

// Opened implements ServiceDriver: propose the input.
func (a *Agreement) Opened(s *Session) {
	_ = s.Stack().ABA.Propose(s.Ctx(), a.input)
}

// MayRetire implements ServiceDriver: release the stack once the
// agreement halted, keeping its state counts for RetiredCounts.
func (a *Agreement) MayRetire(s *Session) bool {
	st := s.Stack()
	if !st.ABA.Halted() {
		return false
	}
	c := st.StateCounts()
	a.mu.Lock()
	a.retired, a.counts = true, c
	a.mu.Unlock()
	return true
}

// Propose opens scope 0 on nd, which must run this driver and be
// started; the stack proposes the input as it opens.
func (a *Agreement) Propose(nd *Node) error {
	return nd.Inject(func() { nd.OpenScope(0) })
}

func (a *Agreement) recordDecision(v int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.decided {
		return
	}
	a.decided, a.value = true, v
	close(a.decideC)
}

// Decision returns the local decision, if any.
func (a *Agreement) Decision() (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.value, a.decided
}

// WaitDecision blocks until the agreement decides or the timeout elapses.
func (a *Agreement) WaitDecision(timeout time.Duration) (int, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-a.decideC:
		v, _ := a.Decision()
		return v, nil
	case <-timer.C:
		return 0, fmt.Errorf("node: no decision after %v", timeout)
	}
}

// Retired reports whether the agreement's stack was released.
func (a *Agreement) Retired() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retired
}

// RetiredCounts returns the stack's state counts taken just before it
// retired — the cumulative created counters survive there — and whether
// it retired yet. Before retirement the live stack's counts are in
// Node.ServiceCounts.
func (a *Agreement) RetiredCounts() (core.StateCounts, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts, a.retired
}

// CoinRounds returns how many coin flips the agreement observed — the
// denominator of the per-coin-round message-complexity report.
func (a *Agreement) CoinRounds() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coinRounds
}
