package main

import (
	"time"
)

// svcSummary is what one pass measured, before it is turned into the
// named metrics: the window's decisions and the deltas over it.
type svcSummary struct {
	windowSecs float64
	// decisions is the mean over the live nodes of the sessions each
	// decided inside the window (nodes complete a session a few
	// milliseconds apart; the mean removes that edge quantisation).
	decisions float64
	// refDecisions is the reference (lowest live) node's own count.
	refDecisions float64
	latencies    []float64 // ms, submissions whose `from` is inside the window
	lags         []float64 // ms, open-loop generator lateness, same set
	submitted    int       // submissions inside the window
	cutInWin     int       // of those, how many no decision carried
	cpuMs        float64
	wireBytes    float64
	delta        nodeSnap // summed over live nodes, t1 − t0
	rt           runtimeCounters
	// coinRounds is the mean over live nodes of the coin flips of the
	// sessions each decided inside the window.
	coinRounds float64
	// values counts non-empty member values over the window's sessions
	// (reference node's view).
	values float64
}

func inWindow(t time.Time, p *svcPass) bool {
	return !t.Before(p.t0.at) && t.Before(p.t1.at)
}

func summarize(p *svcPass, v *svcVerdict) svcSummary {
	s := svcSummary{windowSecs: p.t1.at.Sub(p.t0.at).Seconds()}

	perNode := make(map[int]int)
	coinPerNode := make(map[int]uint64)
	for i := range p.recs {
		r := &p.recs[i]
		if !inWindow(r.at, p) {
			continue
		}
		perNode[r.node]++
		coinPerNode[r.node] += r.coinRounds
		if r.node == p.live[0] {
			for _, d := range r.digests {
				if d.Len > 0 {
					s.values++
				}
			}
		}
	}
	for _, id := range p.live {
		s.decisions += float64(perNode[id])
		s.coinRounds += float64(coinPerNode[id])
	}
	s.refDecisions = float64(perNode[p.live[0]])
	s.decisions /= float64(len(p.live))
	s.coinRounds /= float64(len(p.live))

	for _, sub := range p.subs {
		if !inWindow(sub.from, p) {
			continue
		}
		s.submitted++
		s.lags = append(s.lags, float64(sub.late)/float64(time.Millisecond))
		done, ok := v.done[sub.tag]
		if !ok {
			s.cutInWin++
			continue
		}
		s.latencies = append(s.latencies, float64(done.Sub(sub.from))/float64(time.Millisecond))
	}

	s.cpuMs = float64(p.t1.cpu-p.t0.cpu) / float64(time.Millisecond)
	s.delta.layers = make(map[string]layerSnap)
	for i := range p.t1.nodes {
		a, b := p.t0.nodes[i], p.t1.nodes[i]
		s.delta.sentPayloads += b.sentPayloads - a.sentPayloads
		s.delta.sentFrames += b.sentFrames - a.sentFrames
		s.delta.sentFrameBytes += b.sentFrameBytes - a.sentFrameBytes
		s.delta.latePayloads += b.latePayloads - a.latePayloads
		s.delta.ringWaits += b.ringWaits - a.ringWaits
		if b.ringHighWater > s.delta.ringHighWater {
			s.delta.ringHighWater = b.ringHighWater
		}
		s.delta.pool.Handouts += b.pool.Handouts - a.pool.Handouts
		s.delta.pool.Refills += b.pool.Refills - a.pool.Refills
		for name, l := range b.layers {
			d := s.delta.layers[name]
			d.payloads += l.payloads - a.layers[name].payloads
			d.bytes += l.bytes - a.layers[name].bytes
			s.delta.layers[name] = d
		}
	}
	s.wireBytes = float64(s.delta.sentFrameBytes)
	s.rt = p.t1.rt.sub(p.t0.rt)
	return s
}

// svcEndToEnd turns a pass into the six gated metrics.
func svcEndToEnd(p *svcPass, s svcSummary) map[string]float64 {
	return map[string]float64{
		"decisions_per_s":      ratio(s.decisions, s.windowSecs),
		"latency_p50_ms":       orZero(median(s.latencies)),
		"cpu_ms_per_decision":  ratio(s.cpuMs, s.decisions),
		"wire_kb_per_decision": ratio(s.wireBytes/1e3, s.decisions),
		"heap_live_mb":         orZero(median(p.heapLive)) / 1e6,
		"setup_s":              median(p.setup),
	}
}
