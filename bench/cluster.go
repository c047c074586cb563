package main

import (
	"fmt"
	"sync"
	"time"

	"svssba"
	"svssba/internal/acs"
	"svssba/internal/coinpool"
	"svssba/internal/core"
	"svssba/internal/node"
	"svssba/internal/obs"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// Cluster shape shared by the three service workloads (the paper's
// smallest optimal-resilience configuration, n > 3t).
const (
	svcN      = 4
	svcT      = 1
	svcWindow = 8
	// svcPoolRounds is 8, not the service default of 4: at 4 about 6 % of
	// agreements outrun the pooled dealing and fall back to classic
	// per-round dealing at ~6× the cost, which made identical runs differ
	// by 20 % (see README, "Noise control"). At 8 the fallback share is
	// ~0 and what is left is coin luck, reported as its own layer metric.
	svcPoolRounds = 8
)

// layerSnap is one protocol layer's cumulative sent traffic on a node.
type layerSnap struct{ payloads, bytes int64 }

// nodeSnap is one node's cumulative counters, in the one shape both
// cluster backends (svssba.ServiceNode and a hand-assembled
// node.Node + acs.Driver) are folded into.
type nodeSnap struct {
	sentPayloads, sentFrames, sentFrameBytes int64
	latePayloads, ringWaits, ringDrops       int64
	ringHighWater                            int
	layers                                   map[string]layerSnap
	pool                                     coinpool.Stats
}

// member is one live node of a benchmark cluster.
type member struct {
	id        int
	submit    func([]byte) error
	queueLen  func() int
	inFlight  func() int
	completed func() int
	snap      func() nodeSnap
	// counts reports live scopes and live protocol-state instances (both
	// must return to 0 after the drain).
	counts func() (live, state int, err error)
	errs   func() []error
	tracer *obs.Tracer
}

// decisionRec is one session's decision as one node reported it, with
// values reduced to digests at receipt (see digest).
type decisionRec struct {
	node       int
	session    uint64
	at         time.Time
	members    []int
	digests    []digest
	tags       []valueTag
	tagged     []bool
	coinRounds uint64
}

// sink collects every node's decisions. add is called from the
// collector goroutines (ServiceNode backend) or straight from a node's
// delivery goroutine (assembled backend), so it only hashes and appends.
type sink struct {
	mu   sync.Mutex
	recs []decisionRec
}

func (s *sink) add(nodeID int, session uint64, members []int, values [][]byte, coinRounds uint64) {
	rec := decisionRec{
		node: nodeID, session: session, at: time.Now(),
		members:    append([]int(nil), members...),
		digests:    make([]digest, len(values)),
		tags:       make([]valueTag, len(values)),
		tagged:     make([]bool, len(values)),
		coinRounds: coinRounds,
	}
	for k, v := range values {
		rec.digests[k] = digestOf(v)
		rec.tags[k], rec.tagged[k] = parseTag(v)
	}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *sink) snapshot() []decisionRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]decisionRec(nil), s.recs...)
}

// cluster is a running benchmark cluster: its live members, the
// decision sink they feed, and a close that stops every goroutine the
// bring-up started and waits for them.
type cluster struct {
	members []*member
	sink    *sink
	close   func()
	// stacks, in traced runs, holds the scoped stacks of every
	// stackSampleEvery-th session (captured through the Tamper hook),
	// read after close for the cumulative instance counters service
	// mode does not export.
	stacks *stackLog
}

// stackSampleEvery thins the stack log: a retired stack keeps its slabs
// (~170 KB), so holding all of a pass's ~3000 stacks until close would
// quintuple the live heap of the pass being measured. Session ids are
// allocated in sequence, so every eighth is an unbiased sample.
const stackSampleEvery = 8

func stackSampled(sid uint64) bool { return sid%stackSampleEvery == 0 }

// stackLog records scoped stacks of sampled sessions as the drivers
// open them.
type stackLog struct {
	mu     sync.Mutex
	stacks []*core.Stack
}

func (l *stackLog) add(sid uint64, st *core.Stack) {
	if !stackSampled(sid) {
		return
	}
	l.mu.Lock()
	l.stacks = append(l.stacks, st)
	l.mu.Unlock()
}

// created sums the cumulative instance counters over every logged
// stack. Only call after the cluster closed: the counters are plain
// fields owned by the delivery goroutines.
func (l *stackLog) created() (rb, wrb, mw, sv uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, st := range l.stacks {
		e := st.Node.RB()
		rb += e.Created()
		wrb += e.Weak().Created()
		mw += st.MW.Created()
		sv += st.SVSS.Created()
	}
	return
}

// clusterOpts are the per-run knobs on top of a workload's fixed spec.
type clusterOpts struct {
	seed     int64
	traceCap int  // >0 arms every node's tracer
	logStack bool // capture scoped stacks for instance counting
}

// startCluster boots the workload's cluster. Without a crashed node it
// is svssba.StartService — the public bring-up path; with one it is
// assembled from internal/node + internal/acs + the chan mesh the way
// StartService does it, because ServiceCluster cannot leave a node out.
func startCluster(w svcWorkload, o clusterOpts) (*cluster, error) {
	if w.crash != 0 {
		return startAssembled(w, o)
	}
	return startService(w, o)
}

func startService(w svcWorkload, o clusterOpts) (*cluster, error) {
	cl := &cluster{sink: &sink{}}
	cfg := svssba.ServiceConfig{
		N: svcN, T: svcT, Seed: o.seed,
		Transport:  w.transport,
		Lanes:      w.lanes,
		Window:     svcWindow,
		Pool:       true,
		PoolRounds: svcPoolRounds,
		// Every decision is verified, so the queue must never hit the
		// drop-oldest bound.
		DecisionBuffer: 1 << 20,
		TraceCap:       o.traceCap,
	}
	if o.logStack {
		cl.stacks = &stackLog{}
		cfg.Tamper = func(_ int, sid uint64, _ int, st *core.Stack) { cl.stacks.add(sid, st) }
	}
	sc, err := svssba.StartService(cfg)
	if err != nil {
		return nil, err
	}
	var collectors sync.WaitGroup
	for i := 1; i <= svcN; i++ {
		nd := sc.Node(i)
		id := i
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			for d := range nd.Decisions() {
				cl.sink.add(id, d.Session, d.Members, d.Values, d.CoinRounds)
			}
		}()
		cl.members = append(cl.members, &member{
			id:        i,
			submit:    nd.Submit,
			queueLen:  nd.QueueLen,
			inFlight:  nd.InFlight,
			completed: nd.Completed,
			snap: func() nodeSnap {
				st := nd.Stats()
				s := nodeSnap{
					sentPayloads: st.Sent, sentFrames: st.SentFrames, sentFrameBytes: st.SentFrameBytes,
					latePayloads: st.DroppedLatePayloads,
					ringWaits:    st.RingWaits, ringDrops: st.RingDrops, ringHighWater: st.RingHighWater,
					layers: make(map[string]layerSnap, len(st.ByLayer)),
				}
				for name, l := range st.ByLayer {
					s.layers[name] = layerSnap{payloads: l.SentMsgs, bytes: l.SentBytes}
				}
				s.pool, _ = nd.PoolStats()
				return s
			},
			counts: func() (int, int, error) {
				c, ok := nd.Counts()
				if !ok {
					return 0, 0, fmt.Errorf("node %d: not a service node", id)
				}
				return c.Live, c.State.Total(), nil
			},
			errs:   nd.Errs,
			tracer: nd.Tracer(),
		})
	}
	cl.close = func() {
		sc.Close()
		collectors.Wait()
	}
	return cl, nil
}

func startAssembled(w svcWorkload, o clusterOpts) (*cluster, error) {
	cl := &cluster{sink: &sink{}}
	if o.logStack {
		cl.stacks = &stackLog{}
	}
	mesh := transport.NewMesh(svcN)
	codec := core.NewCodec()
	// Stopping a node closes its endpoint; an endpoint whose node was
	// never built is closed directly.
	var stops []func()
	cl.close = func() {
		for _, stop := range stops {
			stop()
		}
	}
	for i := 1; i <= svcN; i++ {
		if i == w.crash {
			// Crashed before the first submission: the endpoint is never
			// started, so traffic to it vanishes, and no node runs.
			continue
		}
		m, stop, err := assembleNode(cl, mesh, codec, w, o, i)
		if err != nil {
			cl.close()
			return nil, err
		}
		stops = append(stops, stop)
		cl.members = append(cl.members, m)
	}
	return cl, nil
}

// assembleNode wires one service node the way svssba.StartService does:
// acs driver, node runtime in service mode with batching on, bound and
// started on its mesh endpoint.
func assembleNode(cl *cluster, mesh *transport.Mesh, codec *proto.Codec, w svcWorkload, o clusterOpts, i int) (*member, func(), error) {
	ep, err := mesh.Endpoint(sim.ProcID(i))
	if err != nil {
		return nil, nil, err
	}
	if err := ep.Start(); err != nil {
		return nil, nil, err
	}
	acfg := acs.Config{
		N: svcN, T: svcT, Self: sim.ProcID(i), Wire: "v2",
		Window: svcWindow, Pool: true, PoolRounds: svcPoolRounds,
		OnDecide: func(d acs.Decision) {
			members := make([]int, len(d.Members))
			for k, m := range d.Members {
				members[k] = int(m)
			}
			cl.sink.add(i, d.Session, members, d.Values, d.CoinRounds)
		},
	}
	if cl.stacks != nil {
		acfg.Tamper = func(sid uint64, _ int, st *core.Stack) { cl.stacks.add(sid, st) }
	}
	drv, err := acs.New(acfg)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	var tracer *obs.Tracer
	if o.traceCap > 0 {
		tracer = obs.NewTracer(i, o.traceCap)
	}
	nd, err := node.New(node.Config{
		ID: sim.ProcID(i), N: svcN, T: svcT,
		// Same per-node derivation as svssba.StartService.
		Seed:  o.seed + int64(i)*1_000_003,
		Codec: codec, Batching: true, Service: drv,
		Lanes: w.lanes, LaneKey: acs.LaneKey, Trace: tracer,
	}, ep)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	drv.Bind(nd)
	if err := nd.Start(); err != nil {
		nd.Stop() // closes the endpoint
		return nil, nil, err
	}
	m := &member{
		id:        i,
		submit:    drv.Submit,
		queueLen:  drv.QueueLen,
		inFlight:  drv.InFlight,
		completed: drv.Completed,
		snap: func() nodeSnap {
			st := nd.Stats()
			s := nodeSnap{
				sentPayloads: st.Sent, sentFrames: st.SentFrames, sentFrameBytes: st.SentFrameBytes,
				latePayloads: st.DroppedLatePayloads,
				ringWaits:    st.RingWaits, ringDrops: st.RingDrops, ringHighWater: st.RingHighWater,
				layers: make(map[string]layerSnap),
			}
			for name, l := range st.ByLayer() {
				s.layers[name] = layerSnap{payloads: l.SentMsgs, bytes: l.SentBytes}
			}
			s.pool, _ = drv.PoolStats()
			return s
		},
		counts: func() (int, int, error) {
			c, ok := nd.ServiceCounts()
			if !ok {
				return 0, 0, fmt.Errorf("node %d: not a service node", i)
			}
			return c.Live, c.State.Total(), nil
		},
		errs:   nd.Errs,
		tracer: tracer,
	}
	return m, nd.Stop, nil
}

// setupCycle is one cold bring-up: start the workload's cluster, and as
// soon as the bring-up call returns, stop the clock and tear it down.
func setupCycle(w svcWorkload, seed int64) (time.Duration, error) {
	start := time.Now()
	cl, err := startCluster(w, clusterOpts{seed: seed})
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	cl.close()
	return took, nil
}
