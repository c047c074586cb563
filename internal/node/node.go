// Package node is the deployable runtime for the paper's protocol
// stack: one Node hosts the event-driven engines of internal/core
// behind a transport.Transport, encoding every message through the
// internal/proto wire codec. The stacks it hosts are scoped and come
// from a ServiceDriver (see sessions.go): internal/acs composes many
// agreements per session, Agreement hosts the paper's one agreement as
// scope 0. The same Node runs unchanged over the in-process channel
// mesh (RunCluster's default, -race tests) and over real TCP sockets
// (cmd/node, cmd/cluster) — the protocol cores never learn which
// network they are on.
//
// Every payload leaves in a proto.Scoped envelope naming its scope. The
// outbox coalesces one delivery burst's envelopes per peer, and a frame
// is one codec payload: a lone envelope, or a proto.Pack of them.
//
// Lifecycle: New → Start → (Stop | Crash). Crash models a fail-stop:
// the transport is torn down and in-flight traffic is lost. A node does
// not come back; a fresh incarnation is a new Node (with a new driver)
// on a fresh transport.
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
	// Service is required: the driver that builds, opens and retires the
	// node's stacks, one per scope (see ServiceDriver). Agreement hosts
	// one binary agreement.
	Service ServiceDriver
	// Lanes and LaneKey are ignored: a node runs every scope on its one
	// delivery goroutine.
	//
	// Deprecated: kept only so existing callers that set them by name
	// still compile; removed once ROADMAP item 6 step 1 moves the
	// benchmark harness onto the public API.
	Lanes   int
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
// the payload kind, e.g. "rb", "wrb", "aba", "pack"): logical payloads
// and their bytes. A scoped payload counts under its inner kind, and a
// core pack counts as one payload of the "pack" layer: the protocol
// messages it carries are not unwrapped into their own layers. Frames
// span layers, so they are counted per node only (Stats).
type LayerStats struct {
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
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
type Stats struct {
	Sent, SentBytes int64
	Recv, RecvBytes int64

	SentFrames, SentFrameBytes int64
	RecvFrames, RecvFrameBytes int64

	DecodeErrs int64

	// OversizedDropped counts outbound payloads dropped because their
	// standalone frame would exceed the frame cap (a poison frame for the
	// TCP transport's reconnecting dialer). DroppedLatePayloads counts
	// scoped payloads dropped because the driver refused their scope —
	// one that retired, or one it never opens; they are not counted as
	// received.
	OversizedDropped    int64
	DroppedLatePayloads int64

	SentByKind, SentBytesByKind map[string]int64
	RecvByKind, RecvBytesByKind map[string]int64

	// RingWaits, RingDrops and RingHighWater always read 0: a node has
	// no rings.
	//
	// Deprecated: kept only so existing readers still compile; removed
	// once ROADMAP item 6 step 1 moves the benchmark harness onto the
	// public API.
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
		l.SentBytes += s.SentBytesByKind[kind]
		out[LayerOf(kind)] = l
	}
	for kind, n := range s.RecvByKind {
		l := out[LayerOf(kind)]
		l.RecvMsgs += n
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

// Node hosts one process's protocol stacks on a transport.
type Node struct {
	cfg   Config
	codec *proto.Codec

	mu      sync.Mutex
	state   int
	crashed bool
	tr      transport.Transport
	errs    []error
	stop    chan struct{}
	done    chan struct{}

	// The Inject control queue, guarded by mu: ctl holds the accepted
	// thunks, ctlClosed is set once the delivery goroutine stops taking
	// them, and kick (capacity 1) wakes the ingress loop when one is
	// queued.
	ctl       []func()
	ctlClosed bool
	kick      chan struct{}

	// Delivery state, confined to the node's delivery goroutine (the
	// ingress loop): the live sessions by scope, the ones the current
	// burst touched, the send context with its outbox, and the last
	// claimed control queue.
	sessions        map[uint64]*Session
	touchedSessions []*Session
	ctx             *runCtx
	spareCtl        []func()

	// sh holds the traffic counters; Stats() and the metric gauges read
	// them from other goroutines under sh.mu.
	sh *statShard

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
	if cfg.Service == nil {
		return nil, fmt.Errorf("node: no service driver")
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
	n := &Node{
		cfg:      cfg,
		codec:    cfg.Codec,
		tr:       tr,
		kick:     make(chan struct{}, 1),
		sessions: make(map[uint64]*Session),
		sh:       newStatShard(),
	}
	n.ctx = &runCtx{
		n:       n,
		rnd:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make([][]sim.Payload, cfg.N+1),
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
	statGauge := func(sel func(*statShard) int64) func() int64 {
		return func() int64 {
			n.sh.mu.Lock()
			defer n.sh.mu.Unlock()
			return sel(n.sh)
		}
	}
	reg.GaugeFunc(p+"sent_payloads", statGauge(func(sh *statShard) int64 { return sh.sent }))
	reg.GaugeFunc(p+"recv_payloads", statGauge(func(sh *statShard) int64 { return sh.recv }))
	reg.GaugeFunc(p+"sent_frames", statGauge(func(sh *statShard) int64 { return sh.sentF }))
	reg.GaugeFunc(p+"recv_frames", statGauge(func(sh *statShard) int64 { return sh.recvF }))
	reg.GaugeFunc(p+"sent_frame_bytes", statGauge(func(sh *statShard) int64 { return sh.sentFB }))
	reg.GaugeFunc(p+"recv_frame_bytes", statGauge(func(sh *statShard) int64 { return sh.recvFB }))
	reg.GaugeFunc(p+"decode_errs", statGauge(func(sh *statShard) int64 { return sh.decodeErrs }))
	reg.GaugeFunc(p+"oversized_dropped", statGauge(func(sh *statShard) int64 { return sh.oversizedDropped }))
	reg.GaugeFunc(p+"dropped_late_payloads", statGauge(func(sh *statShard) int64 { return sh.latePayloads }))
	reg.GaugeFunc(p+"scopes_live", n.scopesLive.Load)
	reg.GaugeFunc(p+"scopes_retired", n.scopesRetired.Load)
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
			tr.Record(obs.KindMWShare, scope, int(id.Key.Dealer), uint64(id.Key.Moderator), uint64(id.Session.Kind), 0)
		},
		MWRecon: func(id proto.MWID) {
			tr.Record(obs.KindMWRecon, scope, int(id.Key.Dealer), uint64(id.Key.Moderator), uint64(id.Session.Kind), 0)
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

// Start starts the transport and begins delivering; the driver opens
// scopes from then on. A node starts once.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == stateRunning {
		return fmt.Errorf("node %d: already running", n.cfg.ID)
	}
	if n.state == stateStopped {
		return fmt.Errorf("node %d: stopped", n.cfg.ID)
	}
	if err := n.tr.Start(); err != nil {
		return fmt.Errorf("node %d: %w", n.cfg.ID, err)
	}
	n.state = stateRunning
	n.start = time.Now()
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	go n.ingress(n.tr, n.stop, n.done)
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

// ingress is the node's one goroutine and its delivery loop: every
// scope's stack is only ever touched from here, which is what makes the
// engines safe under real concurrency without any locking of their own.
// It waits for inbound frames, control thunks or stop, takes the inbox
// whole and runs it in bursts of up to maxDrainBurst frames, checking
// stop between bursts.
//
// On the way out it closes the control queue and runs one last burst
// without frames, so every accepted Inject thunk still runs.
func (n *Node) ingress(tr transport.Transport, stop, done chan struct{}) {
	defer close(done)
	defer func() {
		n.mu.Lock()
		n.ctlClosed = true
		n.mu.Unlock()
		n.runBurst(nil)
	}()
	ready := tr.Ready()
	var frames []transport.Frame
	for {
		select {
		case <-stop:
			return
		case <-n.kick:
		case <-ready:
		}
		var ok bool
		if frames, ok = tr.Take(frames); !ok {
			return
		}
		for start := 0; ; start += maxDrainBurst {
			end := min(start+maxDrainBurst, len(frames))
			n.runBurst(frames[start:end])
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

// runBurst is one delivery burst: the control thunks, then the frames,
// then the outbox flush and the retirement pass over the scopes the
// burst touched.
func (n *Node) runBurst(frames []transport.Frame) {
	for _, fn := range n.takeCtl() {
		fn()
	}
	for i := range frames {
		n.routeFrame(frames[i])
		frames[i] = transport.Frame{} // release the frame buffer
	}
	n.ctx.flushOutbox()
	n.retireTouched()
}

// routeFrame validates and outer-decodes one inbound frame, counts it,
// and delivers every scope envelope it carries (inner payloads decode in
// deliver).
func (n *Node) routeFrame(f transport.Frame) {
	if f.From < 1 || int(f.From) > n.cfg.N {
		// A sender outside 1..N would count as a phantom voter
		// in the protocol quorums; reject the frame outright.
		n.noteDecodeErr(fmt.Errorf("node %d: frame from unknown process %d", n.cfg.ID, f.From))
		return
	}
	// A corrupt Pack decodes to nothing and is discarded whole: partial
	// delivery would let a Byzantine sender smuggle prefix payloads past
	// the frame-level integrity check.
	p, err := n.codec.Decode(f.Data)
	if err != nil {
		n.noteDecodeErr(fmt.Errorf("node %d: from %d: %w", n.cfg.ID, f.From, err))
		return
	}
	n.sh.countRecvFrameOnly(len(f.Data))
	ps := []sim.Payload{p}
	if pk, ok := p.(proto.Pack); ok {
		ps = pk.Items
	}
	for _, p := range ps {
		sc, ok := p.(proto.Scoped)
		if !ok {
			n.noteDecodeErr(fmt.Errorf("node %d: from %d: unscoped payload %q", n.cfg.ID, f.From, p.Kind()))
			continue
		}
		n.deliver(f.From, sc)
	}
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

// Crashed reports whether the node went down via Crash.
func (n *Node) Crashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

// Errs returns decode and transport errors observed so far.
func (n *Node) Errs() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]error, len(n.errs))
	copy(out, n.errs)
	return out
}

// noteDecodeErr records a decode error in the error log and the
// counters.
func (n *Node) noteDecodeErr(err error) {
	n.noteErr(err)
	n.sh.countDecodeErr()
}

// Stats returns a snapshot of the traffic counters.
func (n *Node) Stats() Stats {
	s := Stats{
		SentByKind:      make(map[string]int64, 16),
		SentBytesByKind: make(map[string]int64, 16),
		RecvByKind:      make(map[string]int64, 16),
		RecvBytesByKind: make(map[string]int64, 16),
	}
	n.sh.addTo(&s)
	return s
}

// runCtx is the node's send context under the scoped contexts of its
// sessions. It is only used from the node's delivery goroutine (Init and
// Deliver), matching the Context contract.
type runCtx struct {
	n   *Node
	rnd *rand.Rand
	// The coalescing outbox: the payloads parked for each destination
	// within a delivery burst, and the destinations in first-touch order,
	// so a burst's frames leave in an order fixed by the order of its
	// sends.
	pending [][]sim.Payload
	touched []sim.ProcID
	// enc is the frame encode buffer, reused across every flush: the
	// transport copies what it keeps before Send returns. one and pack
	// are scratch so a frame encodes and counts without allocating.
	enc  []byte
	one  [1]sim.Payload
	pack proto.Pack
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
	if len(c.pending[to]) == 0 {
		c.touched = append(c.touched, to)
	}
	c.pending[to] = append(c.pending[to], p)
}

// sendOne ships p as a single-payload frame. A payload whose standalone
// frame would exceed maxFrameBytes is dropped instead of sent: the
// TCP transport kills any connection carrying a frame over its limit,
// and the reconnecting dialer would retransmit the same oversized frame
// forever — a Byzantine peer that baits the stack into minting one
// (e.g. a near-limit value that fans out with framing overhead) must
// cost an error and a counter, not a wedged link. This is the only send
// path without a size bound of its own: flushOutbox routes every
// 1-payload chunk (including any payload too big to share a frame)
// here, and the Pack chunks it builds itself are capped by
// construction.
func (c *runCtx) sendOne(to sim.ProcID, p sim.Payload) {
	n := c.n
	if size := proto.FrameSize(p); size > maxFrameBytes {
		n.noteErr(fmt.Errorf("node %d: drop oversized %q to %d: %d bytes exceeds frame cap %d",
			n.cfg.ID, p.Kind(), to, size, maxFrameBytes))
		n.sh.countOversized()
		return
	}
	c.one[0] = p
	c.ship(to, c.one[:1])
}

// ship encodes ps as one frame — a lone payload, or a Pack of them —
// into the reused encode buffer, counts it, and hands it to the
// transport, which copies what it keeps before Send returns.
func (c *runCtx) ship(to sim.ProcID, ps []sim.Payload) {
	n := c.n
	var p sim.Payload = ps[0]
	if len(ps) > 1 {
		c.pack.Items = ps
		p = &c.pack
	}
	enc, err := n.codec.AppendEncode(c.enc[:0], p)
	c.pack.Items = nil
	if err != nil {
		n.noteErr(fmt.Errorf("node %d: encode %q (%d payloads): %w", n.cfg.ID, ps[0].Kind(), len(ps), err))
		return
	}
	c.enc = enc
	n.sh.countSentFrame(ps, len(enc))
	if err := n.tr.Send(to, enc); err != nil {
		n.noteErr(fmt.Errorf("node %d: send to %d: %w", n.cfg.ID, to, err))
	}
}

// maxFrameBytes caps one frame's estimated encoded size. The
// TCP transport kills any connection that carries a frame over its 16
// MiB limit — and a reconnecting dialer would retransmit the same
// oversized frame forever, wedging the link — so a flush whose group
// outgrows this bound (a Byzantine peer can legally provoke one by
// packing a near-limit inbound frame with payloads that each fan out)
// is split into multiple frames well below the transport's ceiling.
const maxFrameBytes = 4 << 20

// flushOutbox ends the delivery burst: every destination's coalesced
// payloads leave as one frame (a Pack when there are several), in
// first-touch order, split only when the estimated encoding would exceed
// maxFrameBytes.
func (c *runCtx) flushOutbox() {
	for _, to := range c.touched {
		ps := c.pending[to]
		for start := 0; start < len(ps); {
			end := start + 1
			size := proto.FrameSize(ps[start])
			for end < len(ps) && size+proto.FrameSize(ps[end]) <= maxFrameBytes {
				// FrameSize over-counts the shared kind code and
				// under-counts the 1–3-byte varint length per payload;
				// with the cap at 1/4 of the transport limit either error
				// is irrelevant.
				size += proto.FrameSize(ps[end])
				end++
			}
			if end == start+1 {
				c.sendOne(to, ps[start])
			} else {
				c.ship(to, ps[start:end])
			}
			start = end
		}
		// The frames are encoded copies: keep the slice for the next
		// burst, without pinning what it carried.
		clear(ps)
		c.pending[to] = ps[:0]
	}
	c.touched = c.touched[:0]
}

func (n *Node) noteErr(err error) {
	n.mu.Lock()
	n.errs = append(n.errs, err)
	n.mu.Unlock()
}
