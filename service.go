package svssba

import (
	"fmt"
	"sync"
	"time"

	"svssba/internal/acs"
	"svssba/internal/coinpool"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/obs"
	"svssba/internal/sim"
)

// ServiceConfig describes an agreement-as-a-service cluster: n
// long-lived service nodes, each hosting any number of concurrent ACS
// sessions (internal/acs) over one transport. Submit a value on any
// node and every node eventually emits the session's decision — a
// common subset of at least n−t proposals, identical across nodes.
type ServiceConfig struct {
	// N is the cluster size; T the resilience bound (defaults to
	// floor((N-1)/3)).
	N, T int
	// Seed derives each node's local randomness.
	Seed int64
	// Transport selects the backend (default TransportChan).
	Transport TransportKind
	// BasePort, for TransportTCP, binds node i to 127.0.0.1:BasePort+i-1.
	// Zero picks ephemeral ports.
	BasePort int
	// Lanes is ignored: each node runs every session on its one
	// delivery goroutine.
	//
	// Deprecated: kept only so existing callers that set it by name still
	// compile; removed once ROADMAP item 6 step 1 moves the benchmark
	// harness onto the public API.
	Lanes int
	// Window bounds how many sessions each node initiates concurrently
	// (default 8). Sessions joined on peer traffic bypass the window.
	Window int
	// Pool turns on the coin-dealing pool (internal/coinpool): a
	// session's n agreements consume lottery sharings from one batched
	// dealing round on the session's proposal plane instead of dealing
	// per coin round — dealt on demand, the first time one of them needs
	// a real coin, so an uncontested session deals nothing — and the
	// submission window refills as soon as a session's plane scope is
	// open (pipelined startup) rather than when its slowest agreement
	// drains.
	Pool bool
	// PoolRounds is the coin-round coverage of each pooled dealing
	// (default 4). Agreement rounds 1–2 take their coin from the ACS
	// driver's known-coin prefix, so at the default only real rounds
	// 3–4 draw on the pool.
	PoolRounds int
	// DecisionBuffer bounds each node's decision queue handed to
	// Decisions() consumers (default 1024; beyond it the oldest pending
	// decisions are dropped — a service consumer that stops reading must
	// not wedge the delivery goroutine).
	DecisionBuffer int
	// Tamper, when set, is installed on every node's driver — the hook
	// adversarial tests use to plant misbehavior in selected scopes of
	// selected nodes (node id is the first argument).
	Tamper func(id int, sid uint64, slot int, st *core.Stack)
	// Metrics, when set, registers every node's instruments (under
	// "node<i>." prefixes) plus service-level aggregates ("service.*":
	// decisions counter, session latency and coin-round histograms,
	// in-flight/queue-depth/pending gauges) on the registry. Serve it
	// with obs.Serve or snapshot it directly.
	Metrics *obs.Registry
	// TraceCap, when positive, attaches a ring-buffered protocol tracer
	// of that capacity to every node (see Tracer/Tracers).
	TraceCap int
}

// ServiceDecision is one completed session as reported by one node.
type ServiceDecision struct {
	Session uint64
	// Members are the proposer ids of the common subset (sorted);
	// Values their proposals (parallel to Members).
	Members []int
	Values  [][]byte
	// Elapsed is that node's local join-to-completion latency.
	Elapsed time.Duration
	// CoinRounds is the number of real common-coin flips that node
	// observed across the session's n agreements: 0 for a session whose
	// agreements all decided inside the known-coin prefix (every
	// fault-free one), otherwise the luck number behind the latency
	// tail.
	CoinRounds uint64
}

// ServiceNode is one node of a service cluster.
type ServiceNode struct {
	id     int
	nd     *node.Node
	drv    *acs.Driver
	tracer *obs.Tracer

	// Service-level instruments, shared across the cluster's nodes (nil
	// without ServiceConfig.Metrics).
	mDecisions *obs.Counter
	mLatMs     *obs.Histogram
	mCoin      *obs.Histogram

	mu      sync.Mutex
	pending []ServiceDecision
	dropped int
	notify  chan struct{}
	out     chan ServiceDecision
	stopped chan struct{}
	bufCap  int
}

// ServiceCluster is a running agreement service.
type ServiceCluster struct {
	cfg   ServiceConfig
	nodes []*ServiceNode
	once  sync.Once
}

func (c *ServiceConfig) normalize() error {
	var err error
	if c.T, c.Transport, err = checkSize(c.N, c.T, c.Transport); err != nil {
		return err
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.DecisionBuffer <= 0 {
		c.DecisionBuffer = 1024
	}
	return nil
}

// StartService boots an agreement-as-a-service cluster. Close it when
// done.
func StartService(cfg ServiceConfig) (*ServiceCluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	trs, err := startFabric(cfg.Transport, cfg.N, cfg.BasePort, nil)
	if err != nil {
		return nil, err
	}
	cl := &ServiceCluster{cfg: cfg, nodes: make([]*ServiceNode, cfg.N+1)}
	// A failed bring-up stops the nodes built so far and closes every
	// transport, the not-yet-owned ones included (their ports stay
	// bound otherwise).
	fail := func(err error) (*ServiceCluster, error) {
		cl.Close()
		trs.close()
		return nil, err
	}
	codec := core.NewCodec()
	var mDecisions *obs.Counter
	var mLatMs, mCoin *obs.Histogram
	if cfg.Metrics != nil {
		mDecisions = cfg.Metrics.Counter("service.decisions")
		// Latency buckets 1ms..~9h, coin buckets 1..~6k flips: wide
		// enough that the heavy tail lands in real buckets, not overflow.
		mLatMs = cfg.Metrics.Histogram("service.session_latency_ms", obs.ExpBuckets(1, 1.8, 28))
		mCoin = cfg.Metrics.Histogram("service.session_coin_rounds", obs.ExpBuckets(1, 1.5, 22))
	}
	for i := 1; i <= cfg.N; i++ {
		sn := &ServiceNode{
			id:         i,
			notify:     make(chan struct{}, 1),
			out:        make(chan ServiceDecision, 64),
			stopped:    make(chan struct{}),
			bufCap:     cfg.DecisionBuffer,
			mDecisions: mDecisions,
			mLatMs:     mLatMs,
			mCoin:      mCoin,
		}
		if cfg.TraceCap > 0 {
			sn.tracer = obs.NewTracer(i, cfg.TraceCap)
		}
		id := i
		acfg := acs.Config{
			N:          cfg.N,
			T:          cfg.T,
			Self:       sim.ProcID(i),
			Window:     cfg.Window,
			Pool:       cfg.Pool,
			PoolRounds: cfg.PoolRounds,
			OnDecide:   sn.push,
		}
		if cfg.Tamper != nil {
			acfg.Tamper = func(sid uint64, slot int, st *core.Stack) {
				cfg.Tamper(id, sid, slot, st)
			}
		}
		drv, err := acs.New(acfg)
		if err != nil {
			return fail(err)
		}
		nd, err := node.New(node.Config{
			ID:      sim.ProcID(i),
			N:       cfg.N,
			T:       cfg.T,
			Seed:    nodeSeed(cfg.Seed, i),
			Codec:   codec,
			Service: drv,
			Metrics: cfg.Metrics,
			Trace:   sn.tracer,
		}, trs[i])
		if err != nil {
			return fail(err)
		}
		drv.Bind(nd)
		sn.nd, sn.drv = nd, drv
		cl.nodes[i] = sn
		if cfg.Metrics != nil {
			sn.registerMetrics(cfg.Metrics)
		}
		if err := nd.Start(); err != nil {
			return fail(err)
		}
		go sn.pumpDecisions()
	}
	return cl, nil
}

// registerMetrics exposes the node's service-layer gauges (session
// window, submission queue, decision queue) under "service.node<i>.".
func (n *ServiceNode) registerMetrics(reg *obs.Registry) {
	p := fmt.Sprintf("service.node%d.", n.id)
	reg.GaugeFunc(p+"in_flight", func() int64 { return int64(n.drv.InFlight()) })
	reg.GaugeFunc(p+"max_in_flight", func() int64 { return int64(n.drv.MaxInFlight()) })
	reg.GaugeFunc(p+"completed", func() int64 { return int64(n.drv.Completed()) })
	reg.GaugeFunc(p+"sessions_remembered", func() int64 { return int64(n.drv.Remembered()) })
	reg.GaugeFunc(p+"value_forwards", n.drv.ValueForwards)
	reg.GaugeFunc(p+"value_candidates_dropped", n.drv.ValueCandidatesDropped)
	reg.GaugeFunc(p+"queue_depth", func() int64 { return int64(n.drv.QueueLen()) })
	reg.GaugeFunc(p+"pending_decisions", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.pending))
	})
	if _, ok := n.drv.PoolStats(); ok {
		reg.GaugeFunc(p+"starting", func() int64 { return int64(n.drv.Starting()) })
		reg.GaugeFunc(p+"pool_depth", func() int64 { st, _ := n.drv.PoolStats(); return st.Depth })
		reg.GaugeFunc(p+"pool_reserved", func() int64 { st, _ := n.drv.PoolStats(); return st.Reserved })
		reg.GaugeFunc(p+"pool_refills", func() int64 { st, _ := n.drv.PoolStats(); return st.Refills })
		reg.GaugeFunc(p+"pool_handouts", func() int64 { st, _ := n.drv.PoolStats(); return st.Handouts })
		reg.GaugeFunc(p+"pool_double_handouts", func() int64 { st, _ := n.drv.PoolStats(); return st.DoubleHandouts })
		reg.GaugeFunc(p+"pool_live_supplies", func() int64 { st, _ := n.drv.PoolStats(); return st.Live })
	}
}

// N returns the cluster size.
func (c *ServiceCluster) N() int { return c.cfg.N }

// T returns the resilience bound.
func (c *ServiceCluster) T() int { return c.cfg.T }

// Node returns node i (1..N).
func (c *ServiceCluster) Node(i int) *ServiceNode { return c.nodes[i] }

// Close stops every node and ends the decision streams.
func (c *ServiceCluster) Close() {
	c.once.Do(func() {
		for _, sn := range c.nodes {
			if sn == nil {
				continue
			}
			sn.nd.Stop()
			close(sn.stopped)
		}
	})
}

// ID returns the node's process id.
func (n *ServiceNode) ID() int { return n.id }

// Submit queues value as this node's proposal for a future session.
// Every submitted value eventually rides some session's proposal slot
// for this node (the Window paces how many at once).
func (n *ServiceNode) Submit(value []byte) error { return n.drv.Submit(value) }

// Decisions streams completed sessions as this node observes them. The
// channel closes when the cluster closes.
func (n *ServiceNode) Decisions() <-chan ServiceDecision { return n.out }

// Completed returns how many sessions this node completed.
func (n *ServiceNode) Completed() int { return n.drv.Completed() }

// InFlight returns this node's joined, not-yet-completed session count.
func (n *ServiceNode) InFlight() int { return n.drv.InFlight() }

// Remembered returns how many sessions this node's driver holds state
// for: live session records plus completed sessions it cannot fold into
// its low-water mark yet. It follows what is in flight, not how many
// sessions ran, so it stays flat on a healthy long-running service.
func (n *ServiceNode) Remembered() int { return n.drv.Remembered() }

// MaxInFlight returns this node's high-water concurrent session count.
func (n *ServiceNode) MaxInFlight() int { return n.drv.MaxInFlight() }

// QueueLen returns submitted values not yet attached to a session.
func (n *ServiceNode) QueueLen() int { return n.drv.QueueLen() }

// ValueForwards returns how many proposal values this node pushed to
// peers it had not seen echo them: 0 while nobody is slow or faulty, one
// per holder per value toward a crashed peer.
func (n *ServiceNode) ValueForwards() int64 { return n.drv.ValueForwards() }

// ValueCandidatesDropped returns how many received proposal values this
// node refused or freed without delivering them.
func (n *ServiceNode) ValueCandidatesDropped() int64 { return n.drv.ValueCandidatesDropped() }

// PoolStats snapshots the node's coin-pool gauges; ok is false when
// pooling is off.
func (n *ServiceNode) PoolStats() (coinpool.Stats, bool) { return n.drv.PoolStats() }

// Counts snapshots the node's session table: live/retired scopes and
// the protocol-state sum over live stacks.
func (n *ServiceNode) Counts() (node.ServiceCounts, bool) { return n.nd.ServiceCounts() }

// Stats returns the node's traffic stats in the cluster report shape.
func (n *ServiceNode) Stats() ClusterNodeStats { return clusterNodeStats(n.id, n.nd, false, false) }

// Errs returns the node's decode and transport errors so far.
func (n *ServiceNode) Errs() []error { return n.nd.Errs() }

// DroppedDecisions returns how many decisions were discarded because
// the consumer fell more than DecisionBuffer behind.
func (n *ServiceNode) DroppedDecisions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Tracer returns the node's protocol round tracer (nil unless
// ServiceConfig.TraceCap was set).
func (n *ServiceNode) Tracer() *obs.Tracer { return n.tracer }

// Tracers returns every node's tracer, indexed 1..N (index 0 nil), for
// handing to obs.Serve. Empty slice unless TraceCap was set.
func (c *ServiceCluster) Tracers() []*obs.Tracer {
	out := make([]*obs.Tracer, 0, c.cfg.N)
	for i := 1; i <= c.cfg.N; i++ {
		if c.nodes[i] != nil && c.nodes[i].tracer != nil {
			out = append(out, c.nodes[i].tracer)
		}
	}
	return out
}

// push runs on the node's delivery goroutine: queue the decision and
// signal the pump without ever blocking.
func (n *ServiceNode) push(d acs.Decision) {
	sd := ServiceDecision{Session: d.Session, Values: d.Values, Elapsed: d.Elapsed, CoinRounds: d.CoinRounds}
	for _, m := range d.Members {
		sd.Members = append(sd.Members, int(m))
	}
	if n.mDecisions != nil {
		n.mDecisions.Inc()
		n.mLatMs.Observe(d.Elapsed.Milliseconds())
		n.mCoin.Observe(int64(d.CoinRounds))
	}
	n.mu.Lock()
	if len(n.pending) >= n.bufCap {
		n.pending[0] = ServiceDecision{} // unpin the dropped decision's values
		n.pending = n.pending[1:]
		n.dropped++
	}
	n.pending = append(n.pending, sd)
	n.mu.Unlock()
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// pumpDecisions moves queued decisions onto the consumer channel off
// the delivery goroutine.
func (n *ServiceNode) pumpDecisions() {
	defer close(n.out)
	for {
		select {
		case <-n.notify:
		case <-n.stopped:
			// Drain what's already queued, then end the stream.
			n.mu.Lock()
			batch := n.pending
			n.pending = nil
			n.mu.Unlock()
			for _, d := range batch {
				select {
				case n.out <- d:
				default:
					return
				}
			}
			return
		}
		for {
			n.mu.Lock()
			if len(n.pending) == 0 {
				n.mu.Unlock()
				break
			}
			d := n.pending[0]
			n.pending[0] = ServiceDecision{} // unpin the handed-off decision's values
			n.pending = n.pending[1:]
			n.mu.Unlock()
			select {
			case n.out <- d:
			case <-n.stopped:
				return
			}
		}
	}
}
