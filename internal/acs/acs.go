// Package acs composes the paper's binary agreement into Agreement on a
// Common Subset, the BKR (Ben-Or/Kelmer/Rabin) construction that
// HoneyBadger-style atomic broadcast builds on: every process reliably
// broadcasts a proposal, one binary agreement per proposer votes on
// whether that proposal "made it", and once n−t agreements decide 1 the
// processes input 0 to the rest. All correct processes output the same
// subset of at least n−t proposals.
//
// The package is a node.ServiceDriver: one Driver runs any number of
// concurrent ACS sessions over a single node runtime. Each session
// spreads across n+1 scopes — scope (sid, 0) hosts the proposal plane
// (a stack whose ProtoACS broadcasts carry the proposals) and scope
// (sid, j) for j in 1..n hosts the binary
// agreement voting on proposer j. Scopes retire independently through
// the node's service machinery: an ABA scope as soon as its agreement
// halts, the plane scope when the session completes, so a long-lived
// service node returns to baseline state after every session no matter
// how the sessions interleave.
//
// # What a finished session leaves behind
//
// A retired scope leaves nothing on the node; late traffic for it
// reaches Open again, and the driver alone decides it is finished. Open
// refuses a slot this session already opened — a fresh engine there
// would be this process equivocating in a broadcast or an agreement it
// already took part in — and any scope of a completed session. The
// driver remembers completed sessions as a low-water mark (every sid at
// or below it is done) plus the completed sids above it, which wait
// there only while a session below them is still open or was never
// heard of. So a service node retains what is in flight, not what it
// ever ran: Remembered is the live session records plus that sparse
// set.
//
// The sparse set never spans more than 4·Window·n sids: a completion
// further above the mark moves the mark up to the lowest completion
// still waiting, so a gap that old counts as done. A live session
// skipped that way is unaffected (its record is checked first). This is
// what lets a fresh incarnation rejoin a running cluster cheaply: the
// sessions that completed before it started are a gap it never fills.
// The first session it completes more than 4·Window·n sids above the
// gap skips it whole, so sids it never saw cost nothing; until then — a
// cluster younger than that — the gap holds back at most that many.
//
// Known limits. A gap is skipped on distance alone, so a session this
// process has not heard of by the time one 4·Window·n sids later
// completed here is refused when its traffic finally arrives (the
// process then counts as crashed for that session). And sids are not
// admitted against a horizon yet: a peer may name any sid, so a single
// envelope with sid = 2⁵⁰ opens a session that never completes and
// moves every honest allocator past it, and a peer can open sessions
// without bound.
//
// # Proposal dissemination
//
// The paper's RB carries its value in every type 1, 2 and 3 message,
// which is right for a field element and 36 copies of a bulk proposal at
// n = 4. A proposal is instead an rb broadcast under the plane's
// ProtoACS tag, which rb echoes by digest (internal/rb, "Digest
// echoes"; values.go):
//
//   - The proposer sends its type 1, carrying the value, once to each
//     peer, and feeds its own engine locally. A process echoes the
//     SHA-256 digest of the value it received from the proposer, and of
//     nothing else, so an honest type 2 implies possession.
//   - A proposal is delivered when its digest is RB-accepted and a body
//     the engine holds hashes to it. RB's agreement on the digest plus
//     collision resistance is agreement on the value; an equivocating
//     proposer's other values hash to nothing accepted and are dropped.
//   - Totality is pushed, not pulled, because a peer whose plane retired
//     drops late traffic undecoded: the first time a process holds
//     proposal j and knows agreement j decided 1, its engine pushes the
//     value to every process whose type 2 for that digest it has not
//     seen (rb.Engine.Push; the proposer never pushes, its own send
//     reached everyone). A 1 decision has an honest voter, which held
//     the value and decides 1 too; whoever it skips holds the value,
//     whoever it does not gets it while still waiting — a plane only
//     retires once its session has every value it needs. A proposal
//     whose agreement decided 0 is never pushed: nobody needs it.
//   - What a Byzantine peer can park is rb's bound: one candidate body
//     per (sender, proposer) per session, first wins, checked against
//     the accepted digest, freed at delivery or when the plane retires.
//     It lives in the plane's RB instances, which the stack's
//     StateCounts cover.
//
// A proposal under 32 bytes — the empty one of a joined session among
// them — is echoed inline, as rb echoes any short value, and needs no
// push. Cost: n(n−1)·|v| per session plus n RBs of 32-byte digests when
// nobody is slow or faulty; toward a crashed or lagging peer, one push
// per other holder per value (ValueForwards). The one computational
// assumption this introduces — SHA-256 collision resistance — is
// confined to the digest echoes of bundles and proposals: the
// protocols' logic stays the paper's information-theoretic
// construction.
//
// # The coin is a cost of contention
//
// ACS knows how its agreements' inputs are biased: 1 for every proposal
// that was delivered, 0 — flooded after n−t ones — for the rest. The
// driver therefore owns a two-round known-coin prefix (round 1 = 1,
// round 2 = 0) and installs it on every agreement it opens
// (aba.Engine.SetCoinPrefix), pooled or not: an agreement whose honest
// inputs are all 1 decides in round 1, one whose honest inputs are all
// 0 (a crashed proposer's) in round 2, neither invoking the common
// coin. Only an agreement whose honest estimates are still split after
// those two voting rounds reaches round 3, and from there on it flips
// the paper's shunning coin exactly as a standalone agreement does,
// round r's coin being coin round r (with the pool, slot r). Why
// agreement, validity and almost-sure termination survive a coin the
// adversary knows in advance is argued in internal/aba's header; it
// costs the adversary's victims at most the two prefix rounds.
//
// With the pool on, nothing is dealt until an agreement reaches a real
// coin round (internal/coinpool deals on demand), so a session nobody
// contests flips no coins, deals no secrets and reconstructs none.
// Decision.CoinRounds counts real flips only.
//
// # Admission cadence
//
// With the coin off the bill a backlogged cluster would start sessions
// as fast as its slowest core drains them. The driver instead initiates
// sessions on a clock cadence with a burst allowance (see pump): a
// loaded service runs at a fixed session rate with CPU to spare, an
// idle one starts a submitted value at once. Joining a peer's session
// is never held back, so the cadence, like the window, cannot stall
// anyone.
package acs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"svssba/internal/coinpool"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/sim"
)

// maxSlots bounds the per-session slot namespace packed into the low
// byte of a scope (slot 0 = proposal plane, 1..n = per-proposer ABA).
const maxSlots = 255

// ScopeOf packs an ACS session id and slot into a node service scope.
func ScopeOf(sid uint64, slot int) uint64 { return sid<<8 | uint64(slot) }

// SplitScope unpacks a service scope into session id and slot.
func SplitScope(scope uint64) (sid uint64, slot int) {
	return scope >> 8, int(scope & 0xff)
}

// LaneKey maps an ACS scope to its session id. A node ignores it: every
// scope runs on the node's one delivery goroutine.
//
// Deprecated: kept only so existing callers that pass it as
// node.Config.LaneKey still compile; removed once ROADMAP item 6 step 1
// moves the benchmark harness onto the public API.
func LaneKey(scope uint64) uint64 { return scope >> 8 }

// Config describes one process's ACS driver.
type Config struct {
	// N, T mirror the cluster's agreement parameters (T defaults to
	// floor((N-1)/3)).
	N, T int
	// Self is this process's id.
	Self sim.ProcID
	// Wire must be "" or "v2": every scoped stack runs wire v2, and any
	// other value is an error.
	//
	// Deprecated: kept only so existing callers that set it by name still
	// compile; removed once ROADMAP item 6 step 1 moves the benchmark
	// harness onto the public API.
	Wire string
	// Window bounds how many sessions this process initiates concurrently
	// (defaults to 8). Sessions joined because a peer's traffic arrived
	// first do not wait on the window — refusing them would stall peers.
	Window int
	// OnDecide observes every completed session (delivery goroutine; must
	// not block).
	OnDecide func(Decision)
	// Pool turns on the coin-dealing pool (internal/coinpool): a session
	// whose agreements need real coins runs one batched dealing round on
	// its proposal plane and its n agreements consume slots from it,
	// amortizing MW-SVSS setup. The window also pipelines — it refills
	// when a session's plane scope has opened, not when its slowest
	// agreement drains.
	Pool bool
	// PoolRounds is the coin-round coverage of each pooled dealing
	// (default 4; later rounds fall back to classic dealing). Coin round
	// numbers are agreement round numbers, so the two prefix rounds'
	// slots go unused: at the default only real rounds 3–4 are pooled.
	PoolRounds int
	// Tamper, when set, runs over every freshly built scoped stack before
	// it goes live — the hook the adversarial tests use to plant
	// misbehavior in selected scopes. Production configs leave it nil.
	Tamper func(sid uint64, slot int, st *core.Stack)
}

// Decision is one completed ACS session: the common subset, as the
// sorted proposer ids whose agreement decided 1 and their proposal
// values (parallel slices).
type Decision struct {
	Session uint64
	Members []sim.ProcID
	Values  [][]byte
	// Elapsed is the local time from joining the session to completing
	// it.
	Elapsed time.Duration
	// CoinRounds is the total number of real common-coin flips this
	// process observed across the session's n agreements (prefix rounds
	// flip nothing and are not counted) — 0 for an uncontested session,
	// otherwise the coin-round-luck number behind the latency tail (the
	// paper's expected-O(n²)-rounds bound is about exactly this
	// distribution).
	CoinRounds uint64
}

// session is the per-ACS-session composition state. Its fields are
// confined to the node's delivery goroutine: only it touches them after
// the record is published through d.mu.
type session struct {
	sid     uint64
	started time.Time

	ownValue     []byte
	proposalSent bool

	plane *node.Session
	aba   []*node.Session // 1..n; nil until the slot's scope opens

	has      []bool   // proposal delivered, by proposer
	values   [][]byte // delivered proposals, by proposer
	proposed []bool   // ABA_j was given an input (by us)
	decided  []int8   // -1 undecided, else 0/1
	ones     int
	decCount int

	zeroFlood bool // n−t ones reached, 0s flooded to the rest
	completed bool

	// pooledStarting marks a pooled session we initiated whose plane
	// scope has not opened yet — the pipelined window counts these
	// instead of all in-flight sessions.
	pooledStarting bool

	coinRounds uint64 // real coin flips observed across the session's agreements
}

// Driver runs concurrent ACS sessions over one service-mode node.
// Create with New, wire with Bind before the node starts, submit with
// Submit.
type Driver struct {
	cfg Config
	nd  *node.Node

	qmu   sync.Mutex
	queue [][]byte

	// mu guards the session/completion tables and the sid allocator —
	// the driver state that Remembered and the cadence timer reach from
	// outside the node's delivery goroutine. Lock-ordering rule: never
	// hold mu across a node call (OpenScope/Touch/stack operations) or a
	// pool call; mu may nest over qmu. The *session records themselves
	// are confined to the delivery goroutine (see session).
	// Completed sessions are doneLow and doneAbove (see doneLocked).
	mu        sync.Mutex
	sessions  map[uint64]*session
	doneLow   uint64
	doneAbove map[uint64]bool
	nextSid   uint64
	pool      *coinpool.Pool // nil when Config.Pool is off
	// paceAt and paceArmed are the admission cadence (see pump): the
	// instant the sessions started so far are paid up to, and whether a
	// wake-up for the next affordable start is pending.
	paceAt    time.Time
	paceArmed bool

	// Gauges (atomics: read by loadgen/tests off-goroutine).
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	decidedN    atomic.Int64
	starting    atomic.Int64 // pooled sessions awaiting their plane scope
	forwards    atomic.Int64 // proposal values pushed to processes that may lack them
	candDropped atomic.Int64 // proposal values received and not delivered, counted as planes retire
}

// Admission cadence (see pump). Every session a process starts —
// initiated or joined — costs paceSession plus paceByte per byte of the
// proposal it carries for this process; a process initiates only while
// its starts are paid up to within paceBurst of now. The constants put
// the cadence at roughly half of what a saturated 2-vCPU host sustains
// at n=4 (≈ 400 sessions/s for small values, ≈ 8 MB/s of own proposals
// for large ones), the burst well above any window.
const (
	paceSession = 2500 * time.Microsecond
	paceByte    = 120 * time.Nanosecond
	paceBurst   = 250 * time.Millisecond
)

// coinPrefix is the known coin of every agreement's first two rounds
// (see the package header). Shared read-only across engines.
var coinPrefix = []uint8{1, 0}

var _ node.ServiceDriver = (*Driver)(nil)

// New validates cfg and creates a driver (not yet bound to a node).
func New(cfg Config) (*Driver, error) {
	if cfg.N < 2 || cfg.N > maxSlots-1 {
		return nil, fmt.Errorf("acs: n=%d out of range 2..%d", cfg.N, maxSlots-1)
	}
	if cfg.T == 0 {
		cfg.T = (cfg.N - 1) / 3
	}
	if cfg.Self < 1 || int(cfg.Self) > cfg.N {
		return nil, fmt.Errorf("acs: self %d out of range 1..%d", cfg.Self, cfg.N)
	}
	if cfg.Wire != "" && cfg.Wire != "v2" {
		return nil, fmt.Errorf("acs: wire variant %q not supported (scoped stacks run v2)", cfg.Wire)
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	// Sids count from 1, so sid 0 starts out below the mark: refused like
	// a completed session's.
	d := &Driver{
		cfg:       cfg,
		sessions:  make(map[uint64]*session),
		doneAbove: make(map[uint64]bool),
		nextSid:   1,
	}
	if cfg.Pool {
		if cfg.PoolRounds <= 0 {
			cfg.PoolRounds = 4
			d.cfg.PoolRounds = 4
		}
		pcfg := coinpool.Config{N: cfg.N, T: cfg.T, Self: cfg.Self, Rounds: cfg.PoolRounds}
		if err := pcfg.Validate(); err != nil {
			return nil, err
		}
		d.pool = coinpool.New(pcfg)
	}
	return d, nil
}

// Bind attaches the driver to its node. The node's Config.Service must
// be this driver; call before the node starts.
func (d *Driver) Bind(nd *node.Node) { d.nd = nd }

// Submit queues value as a proposal for a future session and kicks the
// session pump. Values are copied. Safe from any goroutine.
func (d *Driver) Submit(value []byte) error {
	d.qmu.Lock()
	d.queue = append(d.queue, append([]byte(nil), value...))
	d.qmu.Unlock()
	return d.nd.Inject(d.pump)
}

// InFlight returns the number of joined, not-yet-completed sessions.
func (d *Driver) InFlight() int { return int(d.inFlight.Load()) }

// MaxInFlight returns the high-water concurrent session count.
func (d *Driver) MaxInFlight() int { return int(d.maxInFlight.Load()) }

// Completed returns how many sessions completed.
func (d *Driver) Completed() int { return int(d.decidedN.Load()) }

// Remembered returns how many sessions the driver holds state for: the
// live session records plus the completed sids waiting above the
// low-water mark. It tracks what is in flight, not how many sessions
// ever ran — the number a soak watchdog expects to stay flat.
func (d *Driver) Remembered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions) + len(d.doneAbove)
}

// ValueForwards returns how many proposal values this process pushed to
// peers it had not seen echo them (0 while nobody is slow or faulty).
func (d *Driver) ValueForwards() int64 { return d.forwards.Load() }

// ValueCandidatesDropped returns how many received proposal values were
// refused or freed without being delivered: repeats from one sender,
// copies of a proposal already delivered, values that did not hash to
// the accepted digest, and whatever was still parked when the session's
// plane retired (rb.Engine.Dropped, read then).
func (d *Driver) ValueCandidatesDropped() int64 { return d.candDropped.Load() }

// Starting returns the number of pooled sessions this process initiated
// whose plane scope has not opened yet (always 0 unpooled, and 0 at
// quiescence).
func (d *Driver) Starting() int { return int(d.starting.Load()) }

// PoolStats snapshots the coin pool gauges; ok is false when pooling is
// off. Safe from any goroutine.
func (d *Driver) PoolStats() (coinpool.Stats, bool) {
	if d.pool == nil {
		return coinpool.Stats{}, false
	}
	return d.pool.Stats(), true
}

// QueueLen returns the number of submitted values not yet attached to a
// session.
func (d *Driver) QueueLen() int {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	return len(d.queue)
}

// pump starts new sessions while the window and the admission cadence
// allow and values are queued. Unpooled, the window counts every
// in-flight session — it refills only when a whole session completes.
// Pooled, it counts sessions still *starting* (plane scope not yet
// open), so the next session's setup pipelines behind the
// previous ones' agreement phases; a hard cap of 4× the window on total
// in-flight sessions bounds memory when agreements drain slowly.
//
// The cadence makes a loaded service's session rate a property of the
// clock, not of how much CPU the host happens to have left: without it
// a backlogged cluster starts sessions as fast as its slowest core
// drains them, the rate moves by tens of percent from run to run, and
// every queued value waits behind a saturated node loop. It is a GCRA
// limiter whose ledger every process keeps alike — all starts are
// charged, so the processes' ledgers advance in step and whichever
// can afford the next session first initiates it, the others join —
// and whose burst (paceBurst) lets an idle or briefly stalled service
// start up to a window of sessions at once, so an open-loop client
// below the cadence never waits on it. Like the window, it gates only
// initiation: refusing to join a peer's session would stall the peer.
//
// pump runs on the node's delivery goroutine (Inject thunks, plane
// opens, completion paths; the cadence timer injects it), and opens
// the new session's plane scope inline. Window check, value pop and
// session creation form one critical section under d.mu, which
// Remembered and the cadence timer take from other goroutines.
func (d *Driver) pump() {
	for {
		d.mu.Lock()
		if !d.windowOpen() || d.QueueLen() == 0 {
			d.mu.Unlock()
			return
		}
		if wait := d.paceWaitLocked(time.Now()); wait > 0 {
			if !d.paceArmed {
				d.paceArmed = true
				time.AfterFunc(wait, d.paceFire)
			}
			d.mu.Unlock()
			return
		}
		v, ok := d.tryPopValue()
		if !ok {
			d.mu.Unlock()
			return
		}
		for d.sessions[d.nextSid] != nil || d.doneLocked(d.nextSid) {
			d.nextSid++
		}
		sid := d.nextSid
		d.nextSid++
		d.newSessionLocked(sid, v, d.pool != nil)
		d.mu.Unlock()
		// Opening the plane scope runs Open+Opened, which broadcasts the
		// proposal this session carries for us.
		d.nd.OpenScope(ScopeOf(sid, 0))
	}
}

// paceWaitLocked reports how long the cadence keeps the pump from
// initiating a session (<= 0: it may now). The caller holds d.mu.
func (d *Driver) paceWaitLocked(now time.Time) time.Duration {
	if !d.paceAt.After(now) {
		return 0
	}
	return d.paceAt.Sub(now) - paceBurst
}

// paceChargeLocked books one started session carrying own bytes of
// proposal. Debt is capped at twice the burst so a process that only
// ever joins faster peers' sessions can initiate again soon after they
// stop. The caller holds d.mu.
func (d *Driver) paceChargeLocked(now time.Time, own int) {
	if d.paceAt.Before(now) {
		d.paceAt = now
	}
	d.paceAt = d.paceAt.Add(paceSession + time.Duration(own)*paceByte)
	if lim := now.Add(2 * paceBurst); d.paceAt.After(lim) {
		d.paceAt = lim
	}
}

// paceFire is the cadence timer: re-run the pump on the node loop (a
// stopped node refuses the thunk, which ends the timer chain).
func (d *Driver) paceFire() {
	d.mu.Lock()
	d.paceArmed = false
	d.mu.Unlock()
	_ = d.nd.Inject(d.pump)
}

// doneLocked reports whether session sid is finished here: completed,
// or below the low-water mark. Callers look for a live record first — a
// session the mark skipped stays live until it completes. The caller
// holds d.mu.
func (d *Driver) doneLocked(sid uint64) bool {
	return sid <= d.doneLow || d.doneAbove[sid]
}

// markDoneLocked records that session sid completed: contiguous
// completions fold into the mark, and one landing more than 4·Window·n
// sids above it moves the mark up to the lowest completion still
// waiting (see the package header). The caller holds d.mu.
func (d *Driver) markDoneLocked(sid uint64) {
	if sid <= d.doneLow {
		return
	}
	d.doneAbove[sid] = true
	horizon := uint64(4 * d.cfg.Window * d.cfg.N)
	for {
		for d.doneAbove[d.doneLow+1] {
			delete(d.doneAbove, d.doneLow+1)
			d.doneLow++
		}
		if sid <= d.doneLow+horizon {
			return
		}
		lowest := sid
		for k := range d.doneAbove {
			lowest = min(lowest, k)
		}
		d.doneLow = lowest - 1
	}
}

// windowOpen reports whether the pump may start another session.
func (d *Driver) windowOpen() bool {
	if d.pool == nil {
		return int(d.inFlight.Load()) < d.cfg.Window
	}
	return int(d.starting.Load()) < d.cfg.Window &&
		int(d.inFlight.Load()) < 4*d.cfg.Window
}

// tryPopValue takes the oldest queued value, reporting whether one
// existed.
func (d *Driver) tryPopValue() ([]byte, bool) {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if len(d.queue) == 0 {
		return nil, false
	}
	v := d.queue[0]
	d.queue[0] = nil // the backing array must not pin the popped value
	d.queue = d.queue[1:]
	if v == nil {
		// An empty submission copies to nil; keep the popped/absent
		// distinction intact for newSessionLocked.
		v = []byte{}
	}
	return v, true
}

// popValue is tryPopValue with the joined-session fallback: []byte{}
// when nothing is queued — a session joined on peer traffic still
// participates, with an empty proposal.
func (d *Driver) popValue() []byte {
	if v, ok := d.tryPopValue(); ok {
		return v
	}
	return []byte{}
}

// newSessionLocked creates the composition record for sid; the caller
// holds d.mu. Every field — including pooledStarting — is set before
// the record is published into d.sessions, so a lookup under d.mu
// always sees it complete.
// The scoped stacks open separately — lazily for sessions joined on
// inbound traffic. ownValue nil means "pop on demand" (joined path).
func (d *Driver) newSessionLocked(sid uint64, ownValue []byte, pooledStarting bool) *session {
	n := d.cfg.N
	if ownValue == nil {
		ownValue = d.popValue()
	}
	s := &session{
		sid:      sid,
		started:  time.Now(),
		ownValue: ownValue,
		aba:      make([]*node.Session, n+1),
		has:      make([]bool, n+1),
		values:   make([][]byte, n+1),
		proposed: make([]bool, n+1),
		decided:  make([]int8, n+1),
	}
	for j := range s.decided {
		s.decided[j] = -1
	}
	if pooledStarting {
		s.pooledStarting = true
		d.starting.Add(1)
	}
	d.paceChargeLocked(s.started, len(ownValue))
	d.sessions[sid] = s
	if sid >= d.nextSid {
		// Fast-forward the allocator past sids observed on peer traffic.
		// For a continuously-live node this is a no-op (every locally
		// allocated or joined sid is live or done, which pump skips), but a
		// restarted incarnation remembers nothing: without the bump it
		// would re-issue a sid its peers completed and refuse, and wedge on
		// a session nobody else can join.
		d.nextSid = sid + 1
	}
	if f := d.inFlight.Add(1); f > d.maxInFlight.Load() {
		d.maxInFlight.Store(f)
	}
	return s
}

// Open implements node.ServiceDriver: build the scoped stack for one
// (session, slot) pair. The node asks for any scope without a live
// stack, late traffic for a retired one included, so Open refuses
// malformed slots, every scope of a finished session, and a slot this
// session already opened — its plane or agreement ran here once, and a
// second engine would vote or echo afresh. Refused traffic dies at the
// envelope. Runs on the node's delivery goroutine.
func (d *Driver) Open(sess *node.Session) *core.Stack {
	sid, slot := SplitScope(sess.Scope())
	if slot > d.cfg.N {
		return nil
	}
	d.mu.Lock()
	s := d.sessions[sid]
	if s == nil {
		if d.doneLocked(sid) {
			d.mu.Unlock()
			return nil
		}
		// A peer reached this session first: join it.
		s = d.newSessionLocked(sid, nil, false)
	}
	d.mu.Unlock()
	if s.completed || (slot == 0 && s.plane != nil) || (slot > 0 && s.aba[slot] != nil) {
		return nil
	}
	if d.pool != nil && slot > 0 && s.plane == nil {
		// The pooled agreement consumes the plane's dealing; make sure the
		// plane scope (and with it the session's supply) exists first.
		// Open it synchronously (this re-enters the driver for the plane
		// only).
		d.nd.OpenScope(ScopeOf(sid, 0))
	}
	st := core.NewStack(d.cfg.Self, nil)
	if slot == 0 {
		d.wirePlane(s, st)
	} else {
		j := slot
		st.ABA.SetCoinPrefix(coinPrefix)
		st.OnDecide(func(_ sim.Context, v int) { d.onABADecide(s, j, v) })
		st.OnCoin(func(_ sim.Context, _ uint64, _ int) { s.coinRounds++ })
	}
	if d.cfg.Tamper != nil {
		d.cfg.Tamper(sid, slot, st)
	}
	return st
}

// Opened implements node.ServiceDriver: the scope's stack is live; bind
// it into the session record and fire first sends.
func (d *Driver) Opened(sess *node.Session) {
	sid, slot := SplitScope(sess.Scope())
	d.mu.Lock()
	s := d.sessions[sid]
	d.mu.Unlock()
	if s == nil {
		return
	}
	if slot == 0 {
		s.plane = sess
		if d.pool != nil {
			d.pool.Open(sid, sess.Stack(), sess.Ctx(), sess.Touch)
		}
		if !s.proposalSent {
			s.proposalSent = true
			d.sendOwnValue(s, sess.Stack(), sess.Ctx())
		}
		if s.pooledStarting {
			// The plane is open: the session no longer counts against the
			// pipelined window.
			s.pooledStarting = false
			d.starting.Add(-1)
			d.pump()
		}
		return
	}
	s.aba[slot] = sess
	if d.pool != nil {
		if sup := d.pool.Supply(sid); sup != nil {
			sup.Attach(slot, sess.Stack().Coin, sess.Ctx(), sess.Touch)
		}
	}
}

// MayRetire implements node.ServiceDriver: an ABA scope retires when
// its agreement halted (n−t DECIDEs — the rest of the cluster finishes
// without it, same argument as single-session retirement); the plane
// scope when its session completed (every proposal this process will
// ever use has been delivered).
func (d *Driver) MayRetire(sess *node.Session) bool {
	sid, slot := SplitScope(sess.Scope())
	if slot == 0 {
		if !d.planeDone(sid) {
			return false
		}
		// The plane's engine goes with it: what it received and did not
		// deliver is dropped now.
		d.candDropped.Add(int64(sess.Stack().Node.RB().Dropped()))
		return true
	}
	st := sess.Stack()
	if st == nil || !st.ABA.Halted() {
		return false
	}
	if d.pool != nil {
		if sup := d.pool.Supply(sid); sup != nil {
			sup.Detach(slot)
		}
		d.mu.Lock()
		s := d.sessions[sid]
		d.mu.Unlock()
		if s != nil && s.plane != nil {
			// Re-check the plane this burst: this may be the last agreement
			// holding it open.
			s.plane.Touch()
		}
	}
	return true
}

// planeDone reports whether session sid's plane scope may retire; a
// pooled session's supply and record go when it may.
func (d *Driver) planeDone(sid uint64) bool {
	d.mu.Lock()
	s := d.sessions[sid]
	done := s == nil && d.doneLocked(sid)
	d.mu.Unlock()
	// Pooled: the plane hosts the dealings the agreements consume —
	// ours if we dealt, our peers' either way — so it must outlive
	// every agreement scope, and the completed session's record with
	// it. By the time all have halted, DECIDE amplification finishes
	// the cluster without further dealings, share-phase echoes or
	// coin reconstructions from this process.
	if s == nil || d.pool == nil || !s.completed {
		return done
	}
	for j := 1; j <= d.cfg.N; j++ {
		if ab := s.aba[j]; ab != nil && !ab.Retired() {
			return false
		}
	}
	d.pool.Release(sid)
	d.mu.Lock()
	delete(d.sessions, sid)
	d.mu.Unlock()
	return true
}

// abaSession returns the ABA scope for proposer j, opening it on first
// use.
func (d *Driver) abaSession(s *session, j int) *node.Session {
	if s.aba[j] == nil {
		d.nd.OpenScope(ScopeOf(s.sid, j)) // Opened fills s.aba[j]
	}
	return s.aba[j]
}

// onProposal delivers origin's proposal, value, as the plane's engine
// RB-accepted it (the session keeps it): record it and input 1 to the
// proposer's agreement (BKR step: "on delivering a proposal, vote for
// it").
func (d *Driver) onProposal(s *session, origin sim.ProcID, value []byte) {
	if s.completed || origin < 1 || int(origin) > d.cfg.N {
		return
	}
	j := int(origin)
	if s.has[j] {
		return // RB delivers once per origin, but stay first-wins regardless
	}
	s.has[j] = true
	s.values[j] = value
	if !s.proposed[j] && s.decided[j] == -1 {
		s.proposed[j] = true
		ab := d.abaSession(s, j)
		if st := ab.Stack(); st != nil {
			ab.Touch()
			_ = st.ABA.Propose(ab.Ctx(), 1)
		}
	}
	d.pushValue(s, j)
	d.checkComplete(s)
}

// onABADecide handles agreement j's decision. Reaching n−t ones floods
// 0 into every agreement not yet given an input (BKR step: late
// proposals can no longer join the subset), which is what guarantees
// all n agreements terminate.
func (d *Driver) onABADecide(s *session, j, v int) {
	if s.decided[j] != -1 {
		return
	}
	s.decided[j] = int8(v)
	s.decCount++
	if v == 1 {
		d.pushValue(s, j)
		s.ones++
		if s.ones >= d.cfg.N-d.cfg.T && !s.zeroFlood {
			s.zeroFlood = true
			for k := 1; k <= d.cfg.N; k++ {
				if s.proposed[k] || s.decided[k] != -1 {
					continue
				}
				s.proposed[k] = true
				ab := d.abaSession(s, k)
				if st := ab.Stack(); st != nil {
					ab.Touch()
					_ = st.ABA.Propose(ab.Ctx(), 0)
				}
			}
		}
	}
	d.checkComplete(s)
}

// checkComplete outputs the subset once every agreement decided and
// every 1-decided proposer's proposal is delivered. (A 1 decision with
// the proposal still in flight is possible locally — the agreement only
// needs t+1 honest inputs of 1 — so completion waits for the RB
// delivery; it must arrive, since some honest process delivered it to
// input 1 — the digest by RB's totality, the value by pushValue.)
func (d *Driver) checkComplete(s *session) {
	if s.completed || s.decCount < d.cfg.N {
		return
	}
	for j := 1; j <= d.cfg.N; j++ {
		if s.decided[j] == 1 && !s.has[j] {
			return
		}
	}
	s.completed = true
	d.mu.Lock()
	d.markDoneLocked(s.sid)
	if d.pool == nil {
		delete(d.sessions, s.sid)
	}
	d.mu.Unlock()
	// Pooled: the record stays until the plane retires (MayRetire walks
	// the agreement scopes through it).
	d.inFlight.Add(-1)
	d.decidedN.Add(1)
	if s.plane != nil {
		s.plane.Touch() // plane retires this burst via MayRetire
	}
	if d.cfg.OnDecide != nil {
		dec := Decision{Session: s.sid, Elapsed: time.Since(s.started), CoinRounds: s.coinRounds}
		for j := 1; j <= d.cfg.N; j++ {
			if s.decided[j] == 1 {
				dec.Members = append(dec.Members, sim.ProcID(j))
				dec.Values = append(dec.Values, s.values[j])
			}
		}
		d.cfg.OnDecide(dec)
	}
	clear(s.values) // a decision's Values keep the delivered ones for its consumer
	d.pump()
}
