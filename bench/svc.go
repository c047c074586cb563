package main

import (
	"fmt"
	"sort"
	"time"

	"svssba"
	"svssba/internal/obs"
)

// svcWorkload is the fixed part of a service workload.
type svcWorkload struct {
	name       string
	transport  svssba.TransportKind
	valueBytes int
	lanes      int
	// openRate > 0 makes the workload an open loop at that many
	// submissions per second; 0 is the closed loop (every node's
	// QueueLen()+InFlight() topped up to the window).
	openRate float64
	// crash, when nonzero, is the node that is down for the whole run.
	crash int
}

var svcWorkloads = []svcWorkload{
	{name: wlSvcChan, transport: svssba.TransportChan, valueBytes: 64, lanes: 1},
	{name: wlSvcTCP, transport: svssba.TransportTCP, valueBytes: 64 << 10, lanes: 2},
	{name: wlSvcOpen, transport: svssba.TransportChan, valueBytes: 64, lanes: 1, openRate: 8, crash: 4},
}

// traceRing is each node's tracer capacity in a traced pass. A node
// records ~24k events/s on these workloads, so one ring holds a whole
// 30 s pass and is read once after the cluster closed; the buffer holds
// no pointers, so the collector never scans it.
const traceRing = 1 << 20

// svcTiming sizes one measured pass over a service workload.
type svcTiming struct {
	warmup, window, drain time.Duration
	setupCycles           int
}

// submission is one value the generator handed to a node.
type submission struct {
	tag valueTag
	// from is the instant latency counts from: the submit call's start
	// (closed loop) or the scheduled due time (open loop).
	from time.Time
	// late is how far behind its due time the open-loop generator sent
	// it (zero in the closed loop).
	late time.Duration
}

// counters is everything sampled at both edges of the timed window.
type counters struct {
	at    time.Time
	cpu   time.Duration
	rt    runtimeCounters
	nodes []nodeSnap // parallel to cluster.members
}

func takeCounters(cl *cluster) counters {
	c := counters{at: time.Now(), cpu: processCPU(), rt: readRuntimeCounters()}
	for _, m := range cl.members {
		c.nodes = append(c.nodes, m.snap())
	}
	return c
}

// svcPass is the raw outcome of one warm-up + window + drain pass.
type svcPass struct {
	w        svcWorkload
	tm       svcTiming
	live     []int
	setup    []float64 // seconds per bring-up cycle
	t0, t1   counters
	end      counters // after the drain, before close
	subs     []submission
	recs     []decisionRec
	ledger   *ledger
	heapLive []float64     // bytes, sampled inside the window
	peak     int           // max in-flight sessions seen by the sampler
	events   [][]obs.Event // per live node, whole pass (traced runs)
	// lostEvents counts trace events a ring overwrote before the pass
	// ended; the phase split skips sessions it cannot see whole.
	lostEvents int64
	// traceLo/traceHi are the timed window's edges on the tracers' clock
	// (microseconds since the cluster was built, where tracers start).
	traceLo, traceHi int64
	created          [4]uint64 // rb, wrb, mw, svss instances (traced runs)
	drained          bool
	baseline         bool
	nodeErrs         []string
	spans            *spanLog
}

// runSvcPass drives one pass. traced arms the tracers, the stack log
// and the benchmark-side spans; the e2e numbers of a traced pass are
// only used for trace.overhead_pct.
func runSvcPass(w svcWorkload, tm svcTiming, seed int64, traced bool) (*svcPass, error) {
	p := &svcPass{w: w, tm: tm, ledger: newLedger()}
	if traced {
		p.spans = newSpanLog()
	}

	// Set-up time: cold bring-up cycles before anything else has warmed
	// the heap, median reported (a single StartService is 0.2–1.2 ms on
	// the chan mesh — one shot of that is noise, not a measurement).
	for i := 0; i < tm.setupCycles; i++ {
		sp := p.spans.begin("setup.cycle")
		d, err := setupCycle(w, seed+int64(i))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("setup cycle %d: %w", i, err)
		}
		p.setup = append(p.setup, d.Seconds())
	}

	opts := clusterOpts{seed: seed}
	if traced {
		opts.traceCap = traceRing
		opts.logStack = true
	}
	sp := p.spans.begin("cluster.start")
	builtAt := time.Now()
	cl, err := startCluster(w, opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			cl.close()
		}
	}()
	for _, m := range cl.members {
		p.live = append(p.live, m.id)
	}

	inFlight := make([]func() int, len(cl.members))
	for i, m := range cl.members {
		inFlight[i] = m.inFlight
	}
	smp := startSampler(inFlight)
	defer smp.stop()

	rnd := newRand(seed)
	seq := make(map[int]uint64)
	submit := func(m *member, from time.Time, late time.Duration) error {
		seq[m.id]++
		tag := valueTag{Node: m.id, Seq: seq[m.id]}
		v := makeValue(tag, w.valueBytes, rnd)
		p.ledger.record(tag, v)
		if from.IsZero() {
			from = time.Now()
		}
		sp := p.spans.begin("node.submit")
		err := m.submit(v)
		sp.end()
		if err != nil {
			return fmt.Errorf("node %d: submit: %w", m.id, err)
		}
		p.subs = append(p.subs, submission{tag: tag, from: from, late: late})
		return nil
	}

	start := time.Now()
	t0At := start.Add(tm.warmup)
	t1At := t0At.Add(tm.window)
	var loop *openLoop
	if w.openRate > 0 {
		loop = newOpenLoop(start, w.openRate)
	}
	tookT0 := false
	for {
		now := time.Now()
		if !tookT0 && !now.Before(t0At) {
			sp := p.spans.begin("counters.t0")
			p.t0 = takeCounters(cl)
			sp.end()
			smp.openWindow()
			tookT0 = true
		}
		if !now.Before(t1At) {
			break
		}
		if loop != nil {
			for {
				k, due, ok := loop.pop(now)
				if !ok {
					break
				}
				m := cl.members[k%len(cl.members)]
				if err := submit(m, due, now.Sub(due)); err != nil {
					return nil, err
				}
				now = time.Now()
			}
			// Sleep to the next due time, but never past a window edge.
			edge := t1At
			if !tookT0 {
				edge = t0At
			}
			time.Sleep(min(loop.wait(time.Now()), time.Until(edge)))
			continue
		}
		for _, m := range cl.members {
			for m.queueLen()+m.inFlight() < svcWindow {
				if err := submit(m, time.Time{}, 0); err != nil {
					return nil, err
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	smp.closeWindow()
	sp = p.spans.begin("counters.t1")
	p.t1 = takeCounters(cl)
	sp.end()

	// Untimed drain: every queue empty, nothing in flight, every live
	// node converged on one completed count.
	sp = p.spans.begin("drain")
	p.drained = pollUntil(tm.drain, func() bool {
		c0 := cl.members[0].completed()
		for _, m := range cl.members {
			if m.queueLen() != 0 || m.inFlight() != 0 || m.completed() != c0 {
				return false
			}
		}
		return true
	})
	// Per-session state must retire to baseline on every live node.
	p.baseline = p.drained && pollUntil(tm.drain, func() bool {
		for _, m := range cl.members {
			live, state, err := m.counts()
			if err != nil || live != 0 || state != 0 {
				return false
			}
		}
		return true
	})
	sp.end()
	p.end = takeCounters(cl)
	p.heapLive, p.peak = smp.stop()
	for _, m := range cl.members {
		for _, err := range m.errs() {
			p.nodeErrs = append(p.nodeErrs, fmt.Sprintf("node %d: %v", m.id, err))
		}
	}

	sp = p.spans.begin("cluster.close")
	cl.close()
	closed = true
	sp.end()
	p.recs = cl.sink.snapshot()
	if traced {
		p.traceLo = p.t0.at.Sub(builtAt).Microseconds()
		p.traceHi = p.t1.at.Sub(builtAt).Microseconds()
		for _, m := range cl.members {
			p.events = append(p.events, m.tracer.Events())
			if lost := m.tracer.Total() - traceRing; lost > 0 {
				p.lostEvents += lost
			}
		}
		r, wr, mw, sv := cl.stacks.created()
		p.created = [4]uint64{r, wr, mw, sv}
	}
	return p, nil
}

// pollUntil polls cond every 5 ms until it holds or budget runs out.
func pollUntil(budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// sessionView is one session across the live nodes.
type sessionView struct {
	sid  uint64
	recs map[int]*decisionRec // by reporting node
}

// svcVerdict is the contract check of a pass: which sessions failed and
// why, plus the bookkeeping the metrics need.
type svcVerdict struct {
	sessions  []*sessionView
	attempted int
	failed    int
	reasons   []string
	// done maps a submission to the instant its own node reported the
	// decision carrying it. A submission missing here after a clean
	// drain was cut from its session's subset: legal, not a failure.
	done map[valueTag]time.Time
}

func (v *svcVerdict) fail(format string, args ...any) {
	v.failed++
	if len(v.reasons) < 8 {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
}

// verify checks the service contract over everything the pass decided:
// every session present on every live node with identical members and
// values, at least n−t members, every member value empty or byte-equal
// to the tagged submission of that member; plus the run-wide conditions
// (drained, state at baseline, no pool double handout or leaked supply,
// no live ring drop, no node error), each counted as one failed
// operation so `failed` is never 0 on a broken run.
func verify(p *svcPass) *svcVerdict {
	v := &svcVerdict{done: make(map[valueTag]time.Time)}
	bySid := make(map[uint64]*sessionView)
	for i := range p.recs {
		r := &p.recs[i]
		s := bySid[r.session]
		if s == nil {
			s = &sessionView{sid: r.session, recs: make(map[int]*decisionRec)}
			bySid[r.session] = s
			v.sessions = append(v.sessions, s)
		}
		if _, dup := s.recs[r.node]; dup {
			v.fail("session %d: node %d decided twice", r.session, r.node)
			continue
		}
		s.recs[r.node] = r
	}
	sort.Slice(v.sessions, func(a, b int) bool { return v.sessions[a].sid < v.sessions[b].sid })
	v.attempted = len(v.sessions)

	for _, s := range v.sessions {
		ref := s.recs[p.live[0]]
		ok := true
		for _, id := range p.live {
			r := s.recs[id]
			if r == nil {
				v.fail("session %d: no decision on node %d by the drain deadline", s.sid, id)
				ok = false
				break
			}
			if ref != nil && !sameDecision(ref, r) {
				v.fail("session %d: node %d and node %d decided different subsets or values", s.sid, ref.node, id)
				ok = false
				break
			}
		}
		if !ok || ref == nil {
			continue
		}
		if len(ref.members) < svcN-svcT {
			v.fail("session %d: subset %v smaller than n-t=%d", s.sid, ref.members, svcN-svcT)
			continue
		}
		for k, mbr := range ref.members {
			if p.ledger.match(mbr, ref.digests[k], ref.tags[k], ref.tagged[k]) == matchBad {
				v.fail("session %d: member %d's value is not what node %d submitted", s.sid, mbr, mbr)
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Completion time of each carried submission, on its own node.
		for k, mbr := range ref.members {
			if own := s.recs[mbr]; own != nil && ref.tagged[k] {
				v.done[ref.tags[k]] = own.at
			}
		}
	}
	// Run-wide conditions.
	if !p.drained {
		v.fail("drain: service did not quiesce within %v", p.tm.drain)
	}
	if p.drained && !p.baseline {
		v.fail("per-session state did not retire to baseline")
	}
	for i, s := range p.end.nodes {
		if s.pool.DoubleHandouts != 0 {
			v.fail("node %d: %d pool double handouts", p.live[i], s.pool.DoubleHandouts)
		}
		if p.drained && s.pool.Live != 0 {
			v.fail("node %d: %d pool supplies leaked", p.live[i], s.pool.Live)
		}
		if s.ringDrops != 0 {
			v.fail("node %d: %d live ring drops", p.live[i], s.ringDrops)
		}
	}
	for _, e := range p.nodeErrs {
		v.fail("%s", e)
	}
	if v.attempted == 0 {
		v.attempted = 1
		v.fail("no session completed")
	}
	return v
}

func sameDecision(a, b *decisionRec) bool {
	if len(a.members) != len(b.members) || len(a.digests) != len(b.digests) {
		return false
	}
	for k := range a.members {
		if a.members[k] != b.members[k] || a.digests[k] != b.digests[k] {
			return false
		}
	}
	return true
}
