package svssba

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"svssba/internal/node"
	"svssba/internal/obs"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// TransportKind selects the network backend of a cluster run.
type TransportKind string

// Transport backends.
const (
	// TransportChan runs the cluster over an in-process channel mesh —
	// no sockets, fastest, and the backend race-detector tests use.
	TransportChan TransportKind = "chan"
	// TransportTCP runs the cluster over real localhost TCP sockets with
	// length-prefixed frames and reconnecting dialers.
	TransportTCP TransportKind = "tcp"
)

// ClusterConfig describes an agreement run on the node runtime: one
// node.Node per process, every message through the binary wire codec,
// and transport-level fault injection (crashes, delays, drops). Every
// node runs wire v2 (broadcast bundles and per-destination packs inside
// the stack) behind the coalescing outbox (one frame per destination per
// delivery burst) — the configuration the agreement service ships.
type ClusterConfig struct {
	// N is the cluster size; T the resilience bound (defaults to
	// floor((N-1)/3)).
	N, T int
	// Seed derives each node's local randomness and the fault-injection
	// randomness. Cluster runs are concurrent, so unlike Run the seed
	// does not make the run deterministic.
	Seed int64
	// Inputs are the binary proposals (defaults to alternating 0/1).
	Inputs []int
	// Transport selects the backend (default TransportChan).
	Transport TransportKind
	// BasePort, for TransportTCP, binds node i to 127.0.0.1:BasePort+i-1.
	// Zero picks ephemeral ports.
	BasePort int
	// Crash lists node ids to fail-stop. With CrashAfter zero they never
	// start; otherwise they start and crash after that duration.
	Crash []int
	// CrashAfter delays the Crash faults into the run.
	CrashAfter time.Duration
	// Delay, when positive, injects a uniform random per-frame delay in
	// [0, Delay) on every node's outbound links (benign asynchrony).
	Delay time.Duration
	// Drop is the outbound frame drop probability applied to the nodes
	// in Droppers. A dropping node behaves like a partially silent
	// Byzantine process, so Crash and Droppers together must stay
	// within T.
	Drop     float64
	Droppers []int
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
	// Metrics, when set, registers every node's instruments on the
	// registry (under "node<i>." prefixes — see node.Config.Metrics).
	Metrics *obs.Registry
	// TraceCap, when positive, attaches a protocol round tracer of that
	// capacity to every node; the tracers come back in
	// ClusterResult.Traces.
	TraceCap int
}

// ClusterLayerStats aggregates one node's traffic for one protocol
// layer (payload-kind prefix: "rb", "mw", "svss", "coin", "aba", ...).
// Msgs counts logical payloads (a wire-v2 pack is one "pack" payload);
// Frames counts same-kind wire groups, the per-layer physical unit.
type ClusterLayerStats struct {
	SentMsgs, SentFrames, SentBytes int64
	RecvMsgs, RecvFrames, RecvBytes int64
}

// ClusterNodeStats reports one node's run: lifecycle outcome plus
// traffic totals and the per-layer breakdown. Sent/Recv count logical
// payloads (byte counters use standalone encoded sizes);
// SentFrames/RecvFrames and the frame byte counters are the physical
// messages that actually crossed the transport.
type ClusterNodeStats struct {
	ID       int
	Crashed  bool
	Dropper  bool
	Decided  bool
	Decision int

	Sent, SentBytes int64
	Recv, RecvBytes int64

	SentFrames, SentFrameBytes int64
	RecvFrames, RecvFrameBytes int64

	// Complexity denominators: how many coin rounds this node observed
	// and how many protocol instances each layer opened (cumulative, so
	// retirement does not zero them). Recv / CoinRounds is the node's
	// deliveries-per-coin-round figure; Recv / MWCreated its deliveries
	// per MW sub-instance.
	CoinRounds                        uint64
	RBCreated, MWCreated, SVSSCreated uint64

	// Drop accounting (see node.Stats): outbound payloads dropped for
	// exceeding the frame cap, and scoped payloads dropped because their
	// scope retired (or was never the agreement's).
	OversizedDropped    int64
	DroppedLatePayloads int64

	// RingWaits, RingDrops and RingHighWater always read 0: a node has
	// no rings.
	//
	// Deprecated: kept only so existing readers still compile; removed
	// once ROADMAP item 6 step 1 moves the benchmark harness onto the
	// public API.
	RingWaits     int64
	RingDrops     int64
	RingHighWater int

	ByLayer map[string]ClusterLayerStats
}

// ClusterResult reports a cluster run.
type ClusterResult struct {
	// Decisions maps node id to decision for every node that decided
	// (fault-injected nodes included when they got that far).
	Decisions map[int]int
	// Honest lists the ids agreement is asserted over: everything not
	// crashed and not dropping.
	Honest []int
	// Agreed reports whether all honest nodes decided the same value.
	Agreed bool
	// Value is the agreed value (meaningful when Agreed).
	Value   int
	Elapsed time.Duration
	// Nodes holds per-node stats, ordered by id.
	Nodes []ClusterNodeStats
	// Traces holds each node's protocol round tracer, ordered by id
	// (nil unless ClusterConfig.TraceCap was set).
	Traces []*obs.Tracer
}

// checkBound is the size check every config, live or simulated,
// shares: at least two processes and T within the resilience bound
// 0 <= T, 3T < N (zero means floor((N-1)/3)). It returns T with its
// default applied.
func checkBound(n, t int) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("svssba: need at least 2 processes, have %d", n)
	}
	if t == 0 {
		t = (n - 1) / 3
	}
	if t < 0 || 3*t >= n {
		return 0, fmt.Errorf("svssba: t=%d breaks the resilience bound 0 <= 3t < n=%d", t, n)
	}
	return t, nil
}

// checkSize is the size check every live config shares: checkBound and
// a known transport (empty means TransportChan). It returns T and the
// transport with their defaults applied.
func checkSize(n, t int, kind TransportKind) (int, TransportKind, error) {
	t, err := checkBound(n, t)
	if err != nil {
		return 0, "", err
	}
	if kind == "" {
		kind = TransportChan
	}
	if kind != TransportChan && kind != TransportTCP {
		return 0, "", fmt.Errorf("svssba: unknown transport %q", kind)
	}
	return t, kind, nil
}

func (c *ClusterConfig) normalize() error {
	var err error
	if c.T, c.Transport, err = checkSize(c.N, c.T, c.Transport); err != nil {
		return err
	}
	if len(c.Inputs) == 0 {
		c.Inputs = make([]int, c.N)
		for i := range c.Inputs {
			c.Inputs[i] = i % 2
		}
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("svssba: %d inputs for %d processes", len(c.Inputs), c.N)
	}
	for _, in := range c.Inputs {
		if in != 0 && in != 1 {
			return fmt.Errorf("svssba: input %d is not binary", in)
		}
	}
	if c.Drop < 0 || c.Drop >= 1 {
		return fmt.Errorf("svssba: drop probability %v outside [0,1)", c.Drop)
	}
	if c.Drop > 0 && len(c.Droppers) == 0 {
		return fmt.Errorf("svssba: Drop set without Droppers")
	}
	if c.Drop == 0 && len(c.Droppers) > 0 {
		return fmt.Errorf("svssba: Droppers set without Drop")
	}
	seen := make(map[int]bool)
	for _, p := range append(append([]int{}, c.Crash...), c.Droppers...) {
		if p < 1 || p > c.N {
			return fmt.Errorf("svssba: fault on unknown process %d", p)
		}
		if seen[p] {
			return fmt.Errorf("svssba: process %d assigned two faults", p)
		}
		seen[p] = true
	}
	if len(seen) > c.T {
		return fmt.Errorf("svssba: %d faulty nodes exceed t=%d", len(seen), c.T)
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return nil
}

// fabric is a cluster's transport set, indexed by node id (index 0
// unused).
type fabric []transport.Transport

// startFabric brings up the transports of an n-node cluster before any
// node boots: TCP listeners bound (node i on 127.0.0.1:basePort+i-1, or
// an ephemeral port when basePort is 0) with every peer table filled
// in, or channel-mesh endpoints started where start(id) allows (nil
// starts all of them). Up-front matters for the mesh: an unstarted
// endpoint drops inbound frames, so a fast first node's Init-time
// traffic to a not-yet-booted peer would be lost. On error every
// transport already brought up is closed again.
func startFabric(kind TransportKind, n, basePort int, start func(id int) bool) (fabric, error) {
	f := make(fabric, 1, n+1)
	if kind == TransportTCP {
		tcps := make([]*transport.TCP, n+1)
		addrs := make(map[sim.ProcID]string, n)
		for i := 1; i <= n; i++ {
			listen := "127.0.0.1:0"
			if basePort != 0 {
				listen = fmt.Sprintf("127.0.0.1:%d", basePort+i-1)
			}
			tcps[i] = transport.NewTCP(sim.ProcID(i), listen, nil)
			if err := tcps[i].Start(); err != nil {
				f.close()
				return nil, err
			}
			f = append(f, tcps[i])
			addrs[sim.ProcID(i)] = tcps[i].Addr()
		}
		for i := 1; i <= n; i++ {
			tcps[i].SetPeers(addrs)
		}
		return f, nil
	}
	mesh := transport.NewMesh(n)
	for i := 1; i <= n; i++ {
		ep, err := mesh.Endpoint(sim.ProcID(i))
		if err == nil && (start == nil || start(i)) {
			err = ep.Start()
		}
		if err != nil {
			f.close()
			return nil, err
		}
		f = append(f, ep)
	}
	return f, nil
}

// close closes every transport of the fabric. Closing is idempotent, so
// transports a node already closed on Stop are no-ops here.
func (f fabric) close() {
	for _, tr := range f[1:] {
		tr.Close()
	}
}

// nodeSeed derives node id's local seed from the cluster seed; shared
// by RunCluster, RunSpecNode and StartService so one spec means one
// randomness assignment regardless of how the cluster is launched.
func nodeSeed(seed int64, id int) int64 { return seed + int64(id)*1_000_003 }

// bringUp builds node id of the cluster on transport tr: its agreement
// driver, proposing Inputs[id-1], and the node hosting it as a
// one-scope service. The node is not started.
func (c *ClusterConfig) bringUp(id int, tr transport.Transport, tracer *obs.Tracer) (*node.Node, *node.Agreement, error) {
	agr, err := node.NewAgreement(c.Inputs[id-1])
	if err != nil {
		return nil, nil, err
	}
	nd, err := node.New(node.Config{
		ID:      sim.ProcID(id),
		N:       c.N,
		T:       c.T,
		Seed:    nodeSeed(c.Seed, id),
		Service: agr,
		Metrics: c.Metrics,
		Trace:   tracer,
	}, tr)
	if err != nil {
		return nil, nil, err
	}
	return nd, agr, nil
}

// RunCluster executes one agreement run on the node runtime. It builds
// the transports, boots the nodes, injects the configured faults,
// waits for every honest node to decide, and returns decisions plus
// per-node, per-layer traffic stats.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	crashed := make(map[int]bool, len(cfg.Crash))
	for _, p := range cfg.Crash {
		crashed[p] = true
	}
	dropper := make(map[int]bool, len(cfg.Droppers))
	for _, p := range cfg.Droppers {
		dropper[p] = true
	}

	// Endpoints of crash-at-zero nodes stay unstarted on purpose: their
	// traffic is supposed to vanish.
	trs, err := startFabric(cfg.Transport, cfg.N, cfg.BasePort, func(id int) bool {
		return !crashed[id] || cfg.CrashAfter > 0
	})
	if err != nil {
		return nil, err
	}
	// Runs last: every transport a node did not take down with it (all
	// of them, if a node fails to build) is closed on the way out.
	defer trs.close()

	// Wrap fault-injected links.
	for i := 1; i <= cfg.N; i++ {
		fc := transport.FaultConfig{Seed: nodeSeed(cfg.Seed, i) ^ 0x5eed}
		if cfg.Delay > 0 {
			fc.MaxDelay = cfg.Delay
		}
		if dropper[i] {
			fc.DropProb = cfg.Drop
		}
		trs[i] = transport.WithFaults(trs[i], fc)
	}

	// Build and boot the nodes, each hosting the agreement as a
	// one-scope service.
	nodes := make([]*node.Node, cfg.N+1)
	agrs := make([]*node.Agreement, cfg.N+1)
	var tracers []*obs.Tracer
	for i := 1; i <= cfg.N; i++ {
		var tracer *obs.Tracer
		if cfg.TraceCap > 0 {
			tracer = obs.NewTracer(i, cfg.TraceCap)
			tracers = append(tracers, tracer)
		}
		nodes[i], agrs[i], err = cfg.bringUp(i, trs[i], tracer)
		if err != nil {
			return nil, err
		}
	}
	defer func() {
		for i := 1; i <= cfg.N; i++ {
			nodes[i].Stop()
		}
	}()

	start := time.Now()
	var crashTimers []*time.Timer
	var crashWG sync.WaitGroup
	for i := 1; i <= cfg.N; i++ {
		if crashed[i] && cfg.CrashAfter <= 0 {
			// Fail-stop at time zero: the node never runs; tearing it
			// down closes its transport so peers see dead links.
			nodes[i].Crash()
			continue
		}
		if err := nodes[i].Start(); err != nil {
			return nil, err
		}
		if err := agrs[i].Propose(nodes[i]); err != nil {
			return nil, err
		}
		if crashed[i] {
			nd := nodes[i]
			crashWG.Add(1)
			crashTimers = append(crashTimers, time.AfterFunc(cfg.CrashAfter, func() {
				defer crashWG.Done()
				nd.Crash()
			}))
		}
	}
	defer func() {
		for _, t := range crashTimers {
			if t.Stop() {
				crashWG.Done()
			}
		}
		crashWG.Wait()
	}()

	// Wait for every honest node to decide.
	honest := make([]int, 0, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		if !crashed[i] && !dropper[i] {
			honest = append(honest, i)
		}
	}
	deadline := start.Add(cfg.Timeout)
	for _, i := range honest {
		wait := time.Until(deadline)
		if wait <= 0 {
			wait = time.Millisecond
		}
		if _, err := agrs[i].WaitDecision(wait); err != nil {
			return nil, fmt.Errorf("svssba: cluster run timed out after %v: node %d: %w", cfg.Timeout, i, err)
		}
	}
	elapsed := time.Since(start)

	res := &ClusterResult{
		Decisions: make(map[int]int, cfg.N),
		Honest:    honest,
		Agreed:    true,
		Elapsed:   elapsed,
		Traces:    tracers,
	}
	for i := 1; i <= cfg.N; i++ {
		if v, ok := agrs[i].Decision(); ok {
			res.Decisions[i] = v
		}
		res.Nodes = append(res.Nodes, agreementNodeStats(i, nodes[i], agrs[i], crashed[i], dropper[i]))
	}
	res.Value = res.Decisions[honest[0]]
	for _, i := range honest {
		if res.Decisions[i] != res.Value {
			res.Agreed = false
		}
	}
	var errs []error
	for _, i := range honest {
		errs = append(errs, nodes[i].Errs()...)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("svssba: cluster runtime errors: %v", errs[0])
	}
	return res, nil
}

// clusterNodeStats reports a node's lifecycle outcome and traffic.
func clusterNodeStats(id int, nd *node.Node, crashed, dropper bool) ClusterNodeStats {
	st := nd.Stats()
	out := ClusterNodeStats{
		ID:                  id,
		Crashed:             crashed,
		Dropper:             dropper,
		Sent:                st.Sent,
		SentBytes:           st.SentBytes,
		Recv:                st.Recv,
		RecvBytes:           st.RecvBytes,
		SentFrames:          st.SentFrames,
		SentFrameBytes:      st.SentFrameBytes,
		RecvFrames:          st.RecvFrames,
		RecvFrameBytes:      st.RecvFrameBytes,
		OversizedDropped:    st.OversizedDropped,
		DroppedLatePayloads: st.DroppedLatePayloads,
		ByLayer:             make(map[string]ClusterLayerStats),
	}
	for layer, l := range st.ByLayer() {
		out.ByLayer[layer] = ClusterLayerStats{
			SentMsgs: l.SentMsgs, SentFrames: l.SentFrames, SentBytes: l.SentBytes,
			RecvMsgs: l.RecvMsgs, RecvFrames: l.RecvFrames, RecvBytes: l.RecvBytes,
		}
	}
	return out
}

// agreementNodeStats is clusterNodeStats plus what the node's agreement
// driver observed: decision, coin rounds and created instance counts.
func agreementNodeStats(id int, nd *node.Node, agr *node.Agreement, crashed, dropper bool) ClusterNodeStats {
	out := clusterNodeStats(id, nd, crashed, dropper)
	if v, ok := agr.Decision(); ok {
		out.Decided, out.Decision = true, v
	}
	out.CoinRounds = agr.CoinRounds()
	// The live stack's counts, unless it retired: then the driver's
	// snapshot holds them. Read in this order, a retirement racing the
	// first read is always seen by the second.
	c, _ := nd.ServiceCounts()
	sc := c.State
	if rc, ok := agr.RetiredCounts(); ok {
		sc = rc
	}
	out.RBCreated = sc.RBCreated
	out.MWCreated = sc.MWCreated
	out.SVSSCreated = sc.SVSSCreated
	return out
}

// ClusterSpec is the JSON description shared by the processes of a
// real multi-process cluster: every cmd/node process loads the same
// spec and picks its row by id.
type ClusterSpec struct {
	N      int               `json:"n"`
	T      int               `json:"t,omitempty"`
	Seed   int64             `json:"seed"`
	Inputs []int             `json:"inputs,omitempty"`
	Nodes  []ClusterNodeAddr `json:"nodes"`
}

// ParseClusterSpec decodes a JSON cluster spec strictly and validates
// it. An unknown key is an error, not a silently ignored field: a stale
// option or a misspelt one (say "input" for "inputs") would otherwise
// start a node that runs something other than what the spec says.
func ParseClusterSpec(data []byte) (ClusterSpec, error) {
	var spec ClusterSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return ClusterSpec{}, fmt.Errorf("svssba: spec: %w", err)
	}
	if dec.More() {
		return ClusterSpec{}, fmt.Errorf("svssba: spec: trailing data after the JSON object")
	}
	if err := spec.Validate(); err != nil {
		return ClusterSpec{}, err
	}
	return spec, nil
}

// ClusterNodeAddr binds a node id to its listen address.
type ClusterNodeAddr struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
}

// NewLocalClusterSpec builds a localhost spec: node i listens on
// 127.0.0.1:basePort+i-1.
func NewLocalClusterSpec(n, t int, seed int64, basePort int) ClusterSpec {
	spec := ClusterSpec{N: n, T: t, Seed: seed}
	for i := 1; i <= n; i++ {
		spec.Nodes = append(spec.Nodes, ClusterNodeAddr{
			ID:   i,
			Addr: fmt.Sprintf("127.0.0.1:%d", basePort+i-1),
		})
	}
	return spec
}

// Validate checks spec consistency.
func (s *ClusterSpec) Validate() error {
	if _, _, err := checkSize(s.N, s.T, TransportTCP); err != nil {
		return err
	}
	if len(s.Nodes) != s.N {
		return fmt.Errorf("svssba: spec has %d node addresses for n=%d", len(s.Nodes), s.N)
	}
	if len(s.Inputs) != 0 && len(s.Inputs) != s.N {
		return fmt.Errorf("svssba: spec has %d inputs for n=%d", len(s.Inputs), s.N)
	}
	seen := make(map[int]bool, s.N)
	for _, nd := range s.Nodes {
		if nd.ID < 1 || nd.ID > s.N {
			return fmt.Errorf("svssba: spec node id %d out of range 1..%d", nd.ID, s.N)
		}
		if seen[nd.ID] {
			return fmt.Errorf("svssba: spec node id %d listed twice", nd.ID)
		}
		if nd.Addr == "" {
			return fmt.Errorf("svssba: spec node %d has no address", nd.ID)
		}
		seen[nd.ID] = true
	}
	return nil
}

// RunSpecNode runs one node of a multi-process cluster described by
// spec: it listens on its spec address, dials its peers over TCP, runs
// the protocol to a decision, then keeps serving traffic for linger so
// slower peers can finish (processes in a real deployment do not halt
// the moment they decide). reg (may be nil) receives the node's
// instruments and tracer (may be nil) records its protocol round
// events; both can be served live with obs.Serve while the run is in
// flight. The result covers this one node: Decisions and Nodes hold
// its entry alone and Honest is [id].
func RunSpecNode(spec ClusterSpec, id int, timeout, linger time.Duration, reg *obs.Registry, tracer *obs.Tracer) (*ClusterResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := ClusterConfig{
		N:         spec.N,
		T:         spec.T,
		Seed:      spec.Seed,
		Inputs:    spec.Inputs,
		Transport: TransportTCP,
		Timeout:   timeout,
		Metrics:   reg,
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	addrs := make(map[sim.ProcID]string, spec.N)
	for _, nd := range spec.Nodes {
		addrs[sim.ProcID(nd.ID)] = nd.Addr
	}
	self := addrs[sim.ProcID(id)]
	if self == "" {
		return nil, fmt.Errorf("svssba: id %d not in spec", id)
	}

	nd, agr, err := cfg.bringUp(id, transport.NewTCP(sim.ProcID(id), self, addrs), tracer)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := nd.Start(); err != nil {
		return nil, err
	}
	defer nd.Stop()
	if err := agr.Propose(nd); err != nil {
		return nil, err
	}
	v, err := agr.WaitDecision(cfg.Timeout)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if linger > 0 {
		time.Sleep(linger)
	}
	if errs := nd.Errs(); len(errs) > 0 {
		return nil, fmt.Errorf("svssba: node runtime errors: %v", errs[0])
	}
	return &ClusterResult{
		Decisions: map[int]int{id: v},
		Honest:    []int{id},
		Agreed:    true,
		Value:     v,
		Elapsed:   elapsed,
		Nodes:     []ClusterNodeStats{agreementNodeStats(id, nd, agr, false, false)},
	}, nil
}

// ClusterComplexity is the message-complexity report over a set of
// nodes: total logical deliveries (received payloads) normalized by the
// protocol's unit counts. Deliveries is the sum over the nodes;
// CoinRounds is the maximum any node observed (the protocol-level round
// count — every honest node sees every coin round); the created counts
// sum each layer's instances across the nodes.
type ClusterComplexity struct {
	Deliveries                        uint64
	CoinRounds                        uint64
	RBCreated, MWCreated, SVSSCreated uint64
}

// PerCoinRound returns deliveries per coin round (0 when no coin ran).
func (c ClusterComplexity) PerCoinRound() float64 { return ratio(c.Deliveries, c.CoinRounds) }

// PerMWInstance returns deliveries per MW-SVSS sub-instance.
func (c ClusterComplexity) PerMWInstance() float64 { return ratio(c.Deliveries, c.MWCreated) }

// PerRBSession returns deliveries per RB broadcast session.
func (c ClusterComplexity) PerRBSession() float64 { return ratio(c.Deliveries, c.RBCreated) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Complexity folds per-node stats into the message-complexity report.
func Complexity(nodes []ClusterNodeStats) ClusterComplexity {
	var c ClusterComplexity
	for _, nd := range nodes {
		c.Deliveries += uint64(nd.Recv)
		if nd.CoinRounds > c.CoinRounds {
			c.CoinRounds = nd.CoinRounds
		}
		c.RBCreated += nd.RBCreated
		c.MWCreated += nd.MWCreated
		c.SVSSCreated += nd.SVSSCreated
	}
	return c
}

// ClusterLayerTable flattens aggregate per-layer stats over the given
// nodes into sorted rows — the stats table cmd/cluster prints.
func ClusterLayerTable(nodes []ClusterNodeStats) ([]string, map[string]ClusterLayerStats) {
	agg := make(map[string]ClusterLayerStats)
	for _, nd := range nodes {
		for layer, l := range nd.ByLayer {
			a := agg[layer]
			a.SentMsgs += l.SentMsgs
			a.SentFrames += l.SentFrames
			a.SentBytes += l.SentBytes
			a.RecvMsgs += l.RecvMsgs
			a.RecvFrames += l.RecvFrames
			a.RecvBytes += l.RecvBytes
			agg[layer] = a
		}
	}
	layers := make([]string, 0, len(agg))
	for l := range agg {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	return layers, agg
}
