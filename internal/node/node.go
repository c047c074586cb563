// Package node is the deployable runtime for the paper's protocol
// stack: one Node hosts the event-driven engines of internal/core
// behind a transport.Transport, encoding every message through the
// internal/proto wire codec. The same Node runs unchanged over the
// in-process channel mesh (RunLive, -race tests) and over real TCP
// sockets (cmd/node, cmd/cluster) — the protocol cores never learn
// which network they are on.
//
// Lifecycle: New → Start → (Stop | Crash) → Restart. Crash models a
// fail-stop: the transport is torn down and in-flight traffic is lost.
// Restart boots a fresh protocol stack (state machines restart from
// their initial state and re-propose the configured input) on a fresh
// transport; traffic counters accumulate across incarnations.
package node

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svssba/internal/core"
	"svssba/internal/obs"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// Config describes one node of a cluster.
type Config struct {
	// ID is this node's process id (1..N).
	ID sim.ProcID
	// N is the cluster size; T the resilience bound (defaults to
	// floor((N-1)/3)).
	N, T int
	// Seed drives this node's local randomness (coin polynomial
	// coefficients etc.). Give every node a distinct seed.
	Seed int64
	// Input is the node's binary proposal.
	Input int
	// Codec encodes payloads for the wire; nil installs the full
	// protocol codec (core.NewCodec). Codecs are read-only after
	// registration and may be shared across nodes.
	Codec *proto.Codec
	// Batching is ignored: every node runs wire v2 behind the coalescing
	// outbox.
	//
	// Deprecated: kept only so existing callers that set it by name still
	// compile; removed once ROADMAP item 6 step 1 moves the benchmark
	// harness onto the public API.
	Batching bool
	// OnDecide observes the local decision (called once per incarnation,
	// on the node's delivery goroutine).
	OnDecide func(value int)
	// OnShun observes DMM shun events (same goroutine rules).
	OnShun func(detected sim.ProcID)
	// Service switches the node into multi-session service mode: instead
	// of one stack per incarnation, the node hosts one stack per scope,
	// opened and retired through the driver (see ServiceDriver). Input
	// and OnDecide are ignored in service mode — the driver owns
	// stack construction and decision routing. Service nodes do not
	// support Restart.
	Service ServiceDriver
	// Lanes shards service-mode delivery across per-scope execution
	// lanes (see lanes.go), one goroutine per lane: lane 0 runs on the
	// node's ingress goroutine, lanes 1..k−1 on a worker each. 0 or 1
	// runs everything on the ingress goroutine; k > 1 requires a
	// lane-safe ServiceDriver. Only service mode may set Lanes > 1.
	Lanes int
	// LaneKey maps a scope to its lane-affinity key: scopes with equal
	// keys always share a lane (and may open each other synchronously
	// via Session.OpenPeer). Nil uses the scope itself. The acs driver
	// keys by session id so a session's proposal plane and ABA slots
	// stay mutually single-threaded.
	LaneKey func(scope uint64) uint64
	// Metrics attaches the node to an observability registry: the
	// traffic, drop and protocol-state counters the node already keeps
	// are exposed as pull-based gauges under the "node<ID>." prefix
	// (read at snapshot time — the delivery hot path is unchanged), plus
	// push counters for protocol events (RB accepts, coin flips,
	// decisions). Nil disables.
	Metrics *obs.Registry
	// Trace attaches a protocol round tracer: RB accepts, MW-SVSS
	// completions, coin flips, ABA round advances, decisions and scope
	// open/retire transitions are recorded as ring-buffered events.
	// Instrumentation is observation-only — decisions and message
	// schedules are identical with or without it. Nil disables; then the
	// stack pays one nil pointer check per hook site.
	Trace *obs.Tracer
}

// LayerStats aggregates traffic for one protocol layer (the prefix of
// the payload kind, e.g. "rb", "wrb", "aba", "pack"). Msgs counts logical
// payloads; Frames counts same-kind wire groups — the units that carry a
// kind header on the transport. A group aggregates all consecutive
// same-kind payloads of one frame (e.g. the echoes of many concurrent
// broadcast tags behind one header). A wire-v2 pack counts as one
// payload of the "pack" layer: the protocol messages it carries are not
// unwrapped into their own layers.
type LayerStats struct {
	SentMsgs, SentFrames, SentBytes int64
	RecvMsgs, RecvFrames, RecvBytes int64
}

// Stats is a snapshot of a node's traffic counters, split into the
// logical and the physical view:
//
//   - Sent/Recv and the per-kind maps count logical payloads; their byte
//     counters use each payload's standalone encoded size (kind header
//     included).
//   - SentFrames/RecvFrames and SentFrameBytes/RecvFrameBytes count the
//     physical frames that actually crossed the transport: the outbox
//     coalesces a burst's payloads per destination, so the frame
//     counters show the reduction against the payload counters.
//   - SentGroupsByKind/RecvGroupsByKind count same-kind wire groups (the
//     per-layer physical unit — see LayerStats).
type Stats struct {
	Sent, SentBytes int64
	Recv, RecvBytes int64

	SentFrames, SentFrameBytes int64
	RecvFrames, RecvFrameBytes int64

	DecodeErrs int64

	// OversizedDropped counts outbound payloads dropped because their
	// standalone frame would exceed the frame cap (a poison frame for the
	// TCP transport's reconnecting dialer). DroppedLateFrames counts
	// inbound frames dropped whole because the node already retired;
	// DroppedLatePayloads counts scoped payloads dropped because the
	// driver refused their scope — one that retired, or one it never
	// opens (service mode). Neither late class is counted as received.
	OversizedDropped    int64
	DroppedLateFrames   int64
	DroppedLatePayloads int64

	SentByKind, SentBytesByKind map[string]int64
	RecvByKind, RecvBytesByKind map[string]int64
	SentGroupsByKind            map[string]int64
	RecvGroupsByKind            map[string]int64

	// Lane runtime counters (service mode). Lanes is the configured lane
	// count; RingWaits counts ingress wait episodes on a full lane ring
	// (backpressure, not loss); RingDrops counts ring items discarded at
	// shutdown — a live run must report zero; RingHighWater is the
	// maximum ring occupancy any lane observed.
	Lanes         int
	RingWaits     int64
	RingDrops     int64
	RingHighWater int
}

// LayerOf maps a payload kind to its protocol layer: the segment before
// the first '/' ("aba/bval" → "aba").
func LayerOf(kind string) string {
	if i := strings.IndexByte(kind, '/'); i >= 0 {
		return kind[:i]
	}
	return kind
}

// ByLayer folds the per-kind counters into per-layer totals.
func (s *Stats) ByLayer() map[string]LayerStats {
	out := make(map[string]LayerStats)
	for kind, n := range s.SentByKind {
		l := out[LayerOf(kind)]
		l.SentMsgs += n
		l.SentFrames += s.SentGroupsByKind[kind]
		l.SentBytes += s.SentBytesByKind[kind]
		out[LayerOf(kind)] = l
	}
	for kind, n := range s.RecvByKind {
		l := out[LayerOf(kind)]
		l.RecvMsgs += n
		l.RecvFrames += s.RecvGroupsByKind[kind]
		l.RecvBytes += s.RecvBytesByKind[kind]
		out[LayerOf(kind)] = l
	}
	return out
}

// Layers returns the layer names of s in sorted order.
func (s *Stats) Layers() []string {
	seen := make(map[string]bool)
	for kind := range s.SentByKind {
		seen[LayerOf(kind)] = true
	}
	for kind := range s.RecvByKind {
		seen[LayerOf(kind)] = true
	}
	names := make([]string, 0, len(seen))
	for l := range seen {
		names = append(names, l)
	}
	sort.Strings(names)
	return names
}

// Node lifecycle states.
const (
	stateNew = iota
	stateRunning
	stateStopped
)

// Node hosts one process's protocol stack on a transport.
type Node struct {
	cfg   Config
	codec *proto.Codec

	mu         sync.Mutex
	state      int
	crashed    bool
	tr         transport.Transport
	decided    bool
	value      int
	retired    bool
	coinRounds uint64
	counts     core.StateCounts
	haveCounts bool
	errs       []error
	stop       chan struct{}
	done       chan struct{}
	decideC    chan struct{}

	// lanes holds the current incarnation's execution lanes: lane 0 runs
	// on the ingress goroutine (and on a single-stack node hosts the one
	// stack), lanes 1..k−1 on a worker each. Rebuilt under mu by
	// startLocked.
	lanes []*lane
	// retiredGate short-circuits inbound frames once the (single-mode)
	// stack retired: set on the ingress goroutine at retirement, read
	// there on every frame, so late echo storms are dropped before any
	// decoding.
	retiredGate bool

	// Traffic counters, one shard per lane (ingress counts in lane 0's).
	// Shards live here — not on the per-incarnation lanes — so counters
	// accumulate across restarts. Stats() merges them.
	laneCount int
	shards    []*statShard

	// Observability state. The scope gauges are atomics (not smu) so
	// metric snapshots never contend with the delivery goroutine's
	// session bookkeeping; the event counters are nil when Config.Metrics
	// is unset.
	scopesLive    atomic.Int64
	scopesRetired atomic.Int64
	mRBAccepts    *obs.Counter
	mCoinFlips    *obs.Counter
	mDecisions    *obs.Counter

	start time.Time
}

// New validates cfg and creates a node bound to tr (not yet started).
func New(cfg Config, tr transport.Transport) (*Node, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("node: need at least 2 processes, have %d", cfg.N)
	}
	if cfg.ID < 1 || int(cfg.ID) > cfg.N {
		return nil, fmt.Errorf("node: id %d out of range 1..%d", cfg.ID, cfg.N)
	}
	if cfg.T == 0 {
		cfg.T = (cfg.N - 1) / 3
	}
	if cfg.Input != 0 && cfg.Input != 1 {
		return nil, fmt.Errorf("node: input %d is not binary", cfg.Input)
	}
	if cfg.Codec == nil {
		cfg.Codec = core.NewCodec()
	}
	if tr == nil {
		return nil, fmt.Errorf("node: nil transport")
	}
	if tr.Self() != cfg.ID {
		return nil, fmt.Errorf("node: transport is endpoint %d, node is %d", tr.Self(), cfg.ID)
	}
	if cfg.Lanes < 0 {
		return nil, fmt.Errorf("node: negative lane count %d", cfg.Lanes)
	}
	if cfg.Lanes > 1 && cfg.Service == nil {
		return nil, fmt.Errorf("node: %d lanes require service mode (a single stack is inherently one lane)", cfg.Lanes)
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = 1
	}
	n := &Node{
		cfg:       cfg,
		codec:     cfg.Codec,
		tr:        tr,
		laneCount: cfg.Lanes,
		decideC:   make(chan struct{}),
	}
	n.shards = make([]*statShard, n.laneCount)
	for i := range n.shards {
		n.shards[i] = newStatShard()
	}
	if cfg.Metrics != nil {
		n.registerMetrics(cfg.Metrics)
	}
	return n, nil
}

// registerMetrics exposes the node's counters on reg under the
// "node<ID>." prefix. Everything the node already tracks becomes a
// pull-based gauge — read under the same locks Stats() takes, but only
// at snapshot time — so enabling metrics adds nothing to the delivery
// path beyond the event counters the trace hooks bump.
func (n *Node) registerMetrics(reg *obs.Registry) {
	p := fmt.Sprintf("node%d.", n.cfg.ID)
	sumGauge := func(sel func(*statShard) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, sh := range n.shards {
				sh.mu.Lock()
				t += sel(sh)
				sh.mu.Unlock()
			}
			return t
		}
	}
	reg.GaugeFunc(p+"sent_payloads", sumGauge(func(sh *statShard) int64 { return sh.sent }))
	reg.GaugeFunc(p+"recv_payloads", sumGauge(func(sh *statShard) int64 { return sh.recv }))
	reg.GaugeFunc(p+"sent_frames", sumGauge(func(sh *statShard) int64 { return sh.sentF }))
	reg.GaugeFunc(p+"recv_frames", sumGauge(func(sh *statShard) int64 { return sh.recvF }))
	reg.GaugeFunc(p+"sent_frame_bytes", sumGauge(func(sh *statShard) int64 { return sh.sentFB }))
	reg.GaugeFunc(p+"recv_frame_bytes", sumGauge(func(sh *statShard) int64 { return sh.recvFB }))
	reg.GaugeFunc(p+"decode_errs", sumGauge(func(sh *statShard) int64 { return sh.decodeErrs }))
	reg.GaugeFunc(p+"oversized_dropped", sumGauge(func(sh *statShard) int64 { return sh.oversizedDropped }))
	reg.GaugeFunc(p+"dropped_late_frames", sumGauge(func(sh *statShard) int64 { return sh.lateFrames }))
	reg.GaugeFunc(p+"dropped_late_payloads", sumGauge(func(sh *statShard) int64 { return sh.latePayloads }))
	reg.GaugeFunc(p+"coin_rounds", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(n.coinRounds)
	})
	reg.GaugeFunc(p+"state_total", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		if !n.haveCounts {
			return 0
		}
		return int64(n.counts.Total())
	})
	if n.cfg.Service != nil {
		reg.GaugeFunc(p+"scopes_live", n.scopesLive.Load)
		reg.GaugeFunc(p+"scopes_retired", n.scopesRetired.Load)
		reg.GaugeFunc(p+"lanes", func() int64 { return int64(n.laneCount) })
		laneGauge := func(sel func(waits, drops int64, hw int) int64) func() int64 {
			return func() int64 {
				n.mu.Lock()
				lanes := n.lanes
				n.mu.Unlock()
				var t int64
				for _, ln := range lanes {
					w, d, hw := ln.ringStats()
					t += sel(w, d, hw)
				}
				return t
			}
		}
		reg.GaugeFunc(p+"lane_ring_waits", laneGauge(func(w, _ int64, _ int) int64 { return w }))
		reg.GaugeFunc(p+"lane_ring_drops", laneGauge(func(_, d int64, _ int) int64 { return d }))
	}
	n.mRBAccepts = reg.Counter(p + "rb_accepts")
	n.mCoinFlips = reg.Counter(p + "coin_flips")
	n.mDecisions = reg.Counter(p + "decisions")
}

// obsHooks builds the stack trace hooks for one scope, feeding the
// node's tracer and event counters. Returns nil when observability is
// fully off so the stack keeps its zero-cost nil hooks.
func (n *Node) obsHooks(scope uint64) *core.TraceHooks {
	tr := n.cfg.Trace // nil-receiver Record is a no-op
	if tr == nil && n.cfg.Metrics == nil {
		return nil
	}
	return &core.TraceHooks{
		RBAccept: func(origin sim.ProcID, tag proto.Tag, size int) {
			if n.mRBAccepts != nil {
				n.mRBAccepts.Inc()
			}
			tr.Record(obs.KindRBAccept, scope, int(origin), uint64(tag.Proto), uint64(tag.Step), uint64(size))
		},
		MWShare: func(id proto.MWID) {
			tr.Record(obs.KindMWShare, scope, int(id.Key.Dealer), uint64(id.Key.Moderator), uint64(id.Key.Slot), uint64(id.Session.Kind))
		},
		MWRecon: func(id proto.MWID) {
			tr.Record(obs.KindMWRecon, scope, int(id.Key.Dealer), uint64(id.Key.Moderator), uint64(id.Key.Slot), uint64(id.Session.Kind))
		},
		Coin: func(round uint64, bit int) {
			if n.mCoinFlips != nil {
				n.mCoinFlips.Inc()
			}
			tr.Record(obs.KindCoin, scope, 0, round, uint64(bit), 0)
		},
		ABARound: func(round uint64) {
			tr.Record(obs.KindABARound, scope, 0, round, 0, 0)
		},
		Decide: func(v int) {
			if n.mDecisions != nil {
				n.mDecisions.Inc()
			}
			tr.Record(obs.KindDecide, scope, 0, uint64(v), 0, 0)
		},
	}
}

// ID returns the node's process id.
func (n *Node) ID() sim.ProcID { return n.cfg.ID }

// Start boots the protocol stack: starts the transport, runs the
// stack's Init (which proposes the input), and begins delivering.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == stateRunning {
		return fmt.Errorf("node %d: already running", n.cfg.ID)
	}
	if n.state == stateStopped {
		return fmt.Errorf("node %d: stopped (use Restart)", n.cfg.ID)
	}
	return n.startLocked()
}

func (n *Node) startLocked() error {
	if err := n.tr.Start(); err != nil {
		return fmt.Errorf("node %d: %w", n.cfg.ID, err)
	}
	var st *core.Stack
	if n.cfg.Service == nil {
		st = core.NewStack(n.cfg.ID, func(detected sim.ProcID, _ proto.MWID) {
			if n.cfg.OnShun != nil {
				n.cfg.OnShun(detected)
			}
		})
		st.OnDecide(func(_ sim.Context, v int) { n.recordDecision(v) })
		st.OnCoin(func(_ sim.Context, _ uint64, _ int) {
			n.mu.Lock()
			n.coinRounds++
			n.mu.Unlock()
		})
		st.EnableWireV2()
		if h := n.obsHooks(0); h != nil {
			st.SetTraceHooks(h)
		}
		input := n.cfg.Input
		st.Node.AddInit(func(ctx sim.Context) {
			_ = st.ABA.Propose(ctx, input)
		})
	}

	n.state = stateRunning
	n.start = time.Now()
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	n.retiredGate = false
	n.lanes = make([]*lane, n.laneCount)
	for i := range n.lanes {
		n.lanes[i] = newLane(n, i, n.shards[i], n.newLaneCtx(i, n.shards[i]))
	}
	n.lanes[0].stack = st
	workers := new(sync.WaitGroup)
	for _, ln := range n.lanes[1:] {
		workers.Add(1)
		go ln.loop(workers)
	}
	go n.ingress(n.tr, n.lanes, workers, n.stop, n.done)
	return nil
}

// maxDrainBurst bounds how many already-queued inbound frames one
// delivery burst may consume before the outbox flushes. A burst is the
// node runtime's "delivery step": everything the stack produces for one
// destination while handling the burst leaves as a single frame. The
// bound keeps flushes regular under sustained echo storms so peers never
// wait on an ever-growing burst, and an Inject thunk waits behind at
// most one burst.
const maxDrainBurst = 64

// ingress is the node's one delivery loop, and lane 0's goroutine: the
// stacks lane 0 hosts are only ever touched from here (and each other
// lane's only from its worker), which is what makes the engines safe
// under real concurrency without any locking of their own. It waits for
// inbound frames, lane 0's control thunks or stop, takes the inbox
// whole and runs it through lane 0 in bursts of up to maxDrainBurst
// frames, checking stop between bursts.
//
// Shutdown runs in ingress order: once this loop stops feeding the
// rings, every lane closes, lane 0 runs its accepted thunks and the
// workers drain theirs — so every accepted Inject thunk still runs.
func (n *Node) ingress(tr transport.Transport, lanes []*lane, workers *sync.WaitGroup, stop, done chan struct{}) {
	ln := lanes[0]
	defer close(done)
	defer func() {
		for _, l := range lanes {
			l.close()
		}
		n.runBurst(ln, nil)
		workers.Wait()
		n.snapshotState(ln.stack)
	}()
	if ln.stack != nil {
		ln.stack.Node.Init(ln.ctx)
	}
	ln.ctx.flushOutbox()
	ready := tr.Ready()
	var frames []transport.Frame
	for {
		select {
		case <-stop:
			return
		case <-ln.kick:
		case <-ready:
		}
		var ok bool
		if frames, ok = tr.Take(frames); !ok {
			return
		}
		for start := 0; ; start += maxDrainBurst {
			end := min(start+maxDrainBurst, len(frames))
			n.runBurst(ln, frames[start:end])
			if end == len(frames) {
				break
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
}

// runBurst is one lane-0 delivery burst: the lane's control thunks, then
// the frames, then the outbox flush and the retirement pass.
func (n *Node) runBurst(ln *lane, frames []transport.Frame) {
	for _, fn := range ln.takeCtl() {
		fn()
	}
	for i := range frames {
		n.routeFrame(ln, frames[i])
		frames[i] = transport.Frame{} // release the frame buffer
	}
	ln.endBurst()
}

// routeFrame validates and outer-decodes one inbound frame, counting it
// in lane 0's shard. A single-stack node delivers its payloads to the
// stack; a service node hands every scope envelope to the lane its scope
// hashes to — delivered on the spot when that is lane 0, pushed onto
// the lane's ring otherwise (inner payloads decode on their lanes).
func (n *Node) routeFrame(ln *lane, f transport.Frame) {
	sh := ln.sh
	if f.From < 1 || int(f.From) > n.cfg.N {
		// A sender outside 1..N would count as a phantom voter
		// in the protocol quorums; reject the frame outright.
		n.noteDecodeErrSh(sh, fmt.Errorf("node %d: frame from unknown process %d", n.cfg.ID, f.From))
		return
	}
	if n.retiredGate {
		// The stack retired: nothing in this frame can affect any outcome.
		// Drop it before decoding — a late echo storm must cost a counter
		// bump, not a full batch/pack/bundle unpack.
		sh.countLateFrame()
		return
	}
	var one [1]sim.Payload
	ps := one[:]
	var err error
	if proto.IsBatch(f.Data) {
		// A corrupt batch is discarded whole: partial delivery would let
		// a Byzantine sender smuggle prefix payloads past the frame-level
		// integrity check.
		ps, err = n.codec.DecodeBatch(f.Data)
	} else {
		one[0], err = n.codec.Decode(f.Data)
	}
	if err != nil {
		n.noteDecodeErrSh(sh, fmt.Errorf("node %d: from %d: %w", n.cfg.ID, f.From, err))
		return
	}
	if st := ln.stack; st != nil {
		sh.countRecvFrame(ps, len(f.Data))
		for _, p := range ps {
			st.Node.Deliver(ln.ctx, sim.Message{
				From:    f.From,
				To:      n.cfg.ID,
				Payload: p,
				SentAt:  ln.ctx.Now(),
			})
		}
		return
	}
	sh.countRecvFrameOnly(len(f.Data))
	for _, p := range ps {
		sc, ok := p.(proto.Scoped)
		if !ok {
			n.noteDecodeErrSh(sh, fmt.Errorf("node %d: from %d: unscoped payload %q in service mode", n.cfg.ID, f.From, p.Kind()))
			continue
		}
		if dst := n.laneFor(sc.Scope); dst != ln {
			dst.push(laneItem{from: f.From, sc: sc})
		} else {
			ln.deliver(f.From, sc)
		}
	}
}

// maybeRetire releases the stack's instance state once the agreement
// halted (n−t matching DECIDEs received — every honest process decides
// through DECIDE amplification without further help from this one).
// Long-lived nodes would otherwise keep every broadcast instance of a
// finished agreement alive forever; after retirement the late tail of
// the echo storm is dropped at the door.
func (n *Node) maybeRetire(st *core.Stack) {
	if st.Node.Retired() || !st.ABA.Halted() {
		return
	}
	st.Retire()
	n.retiredGate = true
	n.snapshotState(st)
	n.mu.Lock()
	n.retired = true
	n.mu.Unlock()
}

// snapshotState publishes the stack's state counts (delivery goroutine
// only; readers go through StateCounts). Service-mode nodes have no
// single stack — their counts live in ServiceCounts.
func (n *Node) snapshotState(st *core.Stack) {
	if st == nil {
		return
	}
	c := st.StateCounts()
	n.mu.Lock()
	n.counts = c
	n.haveCounts = true
	n.mu.Unlock()
}

// CoinRounds returns how many coin flips this node observed (cumulative
// across incarnations, like the traffic counters) — the denominator of
// the per-coin-round message-complexity report.
func (n *Node) CoinRounds() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coinRounds
}

// Retired reports whether the current incarnation retired its protocol
// stack (decided, halted, and released its instance state).
func (n *Node) Retired() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retired
}

// StateCounts returns the latest protocol-state snapshot — taken at
// retirement and at shutdown — and whether one exists yet.
func (n *Node) StateCounts() (core.StateCounts, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.counts, n.haveCounts
}

// Stop shuts the node down gracefully: delivery stops, the transport
// closes, queued inbound traffic is discarded.
func (n *Node) Stop() { n.halt(false) }

// Crash fail-stops the node: identical teardown to Stop, but the node
// records that it went down by fault. The rest of the cluster just sees
// its links die.
func (n *Node) Crash() { n.halt(true) }

func (n *Node) halt(crash bool) {
	n.mu.Lock()
	if n.state != stateRunning {
		if crash {
			n.crashed = true
		}
		if n.state == stateNew {
			// Fail-stop before Start: tear the transport down anyway so
			// peers see the links die.
			n.state = stateStopped
			tr := n.tr
			n.mu.Unlock()
			tr.Close()
			return
		}
		n.mu.Unlock()
		return
	}
	n.state = stateStopped
	n.crashed = crash
	stop, done, tr := n.stop, n.done, n.tr
	n.mu.Unlock()
	close(stop)
	tr.Close()
	<-done
}

// Restart boots a fresh protocol stack on a fresh transport. The old
// incarnation must be stopped or crashed. Decision state resets; the
// node re-proposes its configured input.
func (n *Node) Restart(tr transport.Transport) error {
	if n.cfg.Service != nil {
		// A driver's composition state spans sessions and cannot survive a
		// stack-losing restart coherently; service nodes are torn down and
		// rebuilt instead.
		return fmt.Errorf("node %d: service nodes do not support Restart", n.cfg.ID)
	}
	if tr == nil {
		return fmt.Errorf("node %d: nil transport", n.cfg.ID)
	}
	if tr.Self() != n.cfg.ID {
		return fmt.Errorf("node %d: transport is endpoint %d", n.cfg.ID, tr.Self())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == stateRunning {
		return fmt.Errorf("node %d: still running", n.cfg.ID)
	}
	n.tr = tr
	n.crashed = false
	n.decided = false
	n.retired = false
	n.haveCounts = false
	n.decideC = make(chan struct{})
	return n.startLocked()
}

// Crashed reports whether the node went down via Crash.
func (n *Node) Crashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

// Decision returns the local decision of the current incarnation.
func (n *Node) Decision() (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.value, n.decided
}

// WaitDecision blocks until the node decides or the timeout elapses.
func (n *Node) WaitDecision(timeout time.Duration) (int, error) {
	n.mu.Lock()
	c := n.decideC
	n.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-c:
		v, _ := n.Decision()
		return v, nil
	case <-timer.C:
		return 0, fmt.Errorf("node %d: no decision after %v", n.cfg.ID, timeout)
	}
}

func (n *Node) recordDecision(v int) {
	n.mu.Lock()
	if n.decided {
		n.mu.Unlock()
		return
	}
	n.decided = true
	n.value = v
	close(n.decideC)
	n.mu.Unlock()
	if n.cfg.OnDecide != nil {
		n.cfg.OnDecide(v)
	}
}

// Errs returns decode and transport errors observed so far.
func (n *Node) Errs() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]error, len(n.errs))
	copy(out, n.errs)
	return out
}

// noteDecodeErrSh records a decode error in the error log and the
// counting shard of whichever goroutine observed it.
func (n *Node) noteDecodeErrSh(sh *statShard, err error) {
	n.noteErr(err)
	sh.countDecodeErr()
}

// Stats returns a snapshot of the traffic counters, merging the
// per-lane shards (one shard covers everything on a one-lane node).
func (n *Node) Stats() Stats {
	s := Stats{
		Lanes:            n.laneCount,
		SentByKind:       make(map[string]int64, 16),
		SentBytesByKind:  make(map[string]int64, 16),
		RecvByKind:       make(map[string]int64, 16),
		RecvBytesByKind:  make(map[string]int64, 16),
		SentGroupsByKind: make(map[string]int64, 16),
		RecvGroupsByKind: make(map[string]int64, 16),
	}
	for _, sh := range n.shards {
		sh.addTo(&s)
	}
	n.mu.Lock()
	lanes := n.lanes
	n.mu.Unlock()
	for _, ln := range lanes {
		w, d, hw := ln.ringStats()
		s.RingWaits += w
		s.RingDrops += d
		if hw > s.RingHighWater {
			s.RingHighWater = hw
		}
	}
	return s
}

// runCtx is the sim.Context one incarnation's stack sees. It is only
// used from its lane's delivery goroutine (Init and Deliver), matching
// the Context contract.
type runCtx struct {
	n   *Node
	tr  transport.Transport
	rnd *rand.Rand
	sh  *statShard
	// bw is the transport's borrowed-send capability (nil when absent,
	// e.g. Mesh): with it, frames encode into enc — reused across every
	// flush this lane performs — and ship without allocating; without
	// it each frame gets its own buffer, which the transport keeps.
	bw  transport.Borrower
	enc []byte
	// ob is the coalescing outbox; one is a scratch slot so
	// single-payload frames count without allocating.
	ob  *outbox
	one [1]sim.Payload
}

// outbox is the per-destination coalescing buffer every lane sends
// through: payloads parked for one destination within a delivery burst
// flush together, and destinations flush in first-touch order, so
// a burst's frames leave in an order fixed by the order of its sends.
// Each lane owns its own; not safe for concurrent use.
type outbox struct {
	pending [][]sim.Payload // indexed by destination
	touched []sim.ProcID    // destinations with pending payloads, first-touch order
}

func newOutbox(n int) *outbox {
	return &outbox{pending: make([][]sim.Payload, n+1)}
}

func (o *outbox) add(to sim.ProcID, p sim.Payload) {
	if len(o.pending[to]) == 0 {
		o.touched = append(o.touched, to)
	}
	o.pending[to] = append(o.pending[to], p)
}

// flush ships every destination's group through send, in first-touch
// order, and empties the buffer. The group slices are handed off, not
// reused: a frame may keep referencing its payloads after send returns.
func (o *outbox) flush(send func(to sim.ProcID, ps []sim.Payload)) {
	for _, to := range o.touched {
		ps := o.pending[to]
		o.pending[to] = nil
		send(to, ps)
	}
	o.touched = o.touched[:0]
}

var _ sim.Context = (*runCtx)(nil)

func (c *runCtx) N() int           { return c.n.cfg.N }
func (c *runCtx) T() int           { return c.n.cfg.T }
func (c *runCtx) Rand() *rand.Rand { return c.rnd }

func (c *runCtx) Now() int64 {
	return time.Since(c.n.start).Microseconds()
}

// Send parks p in the outbox, where all of this delivery burst's
// traffic for process `to` coalesces into one frame at flushOutbox.
func (c *runCtx) Send(to sim.ProcID, p sim.Payload) {
	if to < 1 || int(to) > c.n.cfg.N {
		return
	}
	c.ob.add(to, p)
}

// sendOne ships p as a single-payload frame. A payload whose standalone
// frame would exceed maxBatchFrameBytes is dropped instead of sent: the
// TCP transport kills any connection carrying a frame over its limit,
// and the reconnecting dialer would retransmit the same oversized frame
// forever — a Byzantine peer that baits the stack into minting one
// (e.g. a near-limit value that fans out with framing overhead) must
// cost an error and a counter, not a wedged link. This is the only send
// path without a size bound of its own: flushOutbox routes every
// 1-payload chunk (including any payload too big to share a frame)
// here, and the batch chunks it builds itself are capped by
// construction.
func (c *runCtx) sendOne(to sim.ProcID, p sim.Payload) {
	n := c.n
	if size := proto.FrameSize(p); size > maxBatchFrameBytes {
		n.noteErr(fmt.Errorf("node %d: drop oversized %q to %d: %d bytes exceeds frame cap %d",
			n.cfg.ID, p.Kind(), to, size, maxBatchFrameBytes))
		c.sh.countOversized()
		return
	}
	c.one[0] = p
	c.ship(to, c.one[:1])
}

// ship encodes ps as one frame — the batch format for more than one
// payload — counts it, and hands it to the transport. Over a
// transport.Borrower the frame encodes into the lane's reusable buffer,
// which is ours again the moment SendBorrowed returns; otherwise it gets
// its own buffer, which the transport keeps.
func (c *runCtx) ship(to sim.ProcID, ps []sim.Payload) {
	n := c.n
	var enc []byte
	var err error
	switch {
	case len(ps) == 1 && c.bw != nil:
		enc, err = n.codec.AppendEncode(c.enc[:0], ps[0])
	case len(ps) == 1:
		enc, err = n.codec.Encode(ps[0])
	case c.bw != nil:
		enc, err = n.codec.AppendEncodeBatch(c.enc[:0], ps)
	default:
		enc, err = n.codec.EncodeBatch(ps)
	}
	if err != nil {
		n.noteErr(fmt.Errorf("node %d: encode %q (%d payloads): %w", n.cfg.ID, ps[0].Kind(), len(ps), err))
		return
	}
	c.sh.countSentFrame(ps, len(enc))
	if c.bw != nil {
		c.enc = enc
		err = c.bw.SendBorrowed(to, enc)
	} else {
		err = c.tr.Send(to, enc)
	}
	if err != nil {
		n.noteErr(fmt.Errorf("node %d: send to %d: %w", n.cfg.ID, to, err))
	}
}

// maxBatchFrameBytes caps one batch frame's estimated encoded size. The
// TCP transport kills any connection that carries a frame over its 16
// MiB limit — and a reconnecting dialer would retransmit the same
// oversized frame forever, wedging the link — so a flush whose group
// outgrows this bound (a Byzantine peer can legally provoke one by
// packing a near-limit inbound batch with payloads that each fan out)
// is split into multiple frames well below the transport's ceiling.
const maxBatchFrameBytes = 4 << 20

// flushOutbox ends the delivery burst: every destination's coalesced
// group leaves as one frame (batch format for multi-payload groups),
// split only when a group's estimated encoding would exceed
// maxBatchFrameBytes.
func (c *runCtx) flushOutbox() {
	c.ob.flush(func(to sim.ProcID, ps []sim.Payload) {
		for start := 0; start < len(ps); {
			end := start + 1
			size := proto.FrameSize(ps[start])
			for end < len(ps) && size+proto.FrameSize(ps[end]) <= maxBatchFrameBytes {
				// FrameSize over-counts the shared kind codes and
				// under-counts the 1–3-byte varint length per payload;
				// with the cap at 1/4 of the transport limit either error
				// is irrelevant.
				size += proto.FrameSize(ps[end])
				end++
			}
			chunk := ps[start:end]
			start = end
			if len(chunk) == 1 {
				c.sendOne(to, chunk[0])
				continue
			}
			c.ship(to, chunk)
		}
	})
}

func (n *Node) noteErr(err error) {
	n.mu.Lock()
	n.errs = append(n.errs, err)
	n.mu.Unlock()
}
