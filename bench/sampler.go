package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are the cumulative Go runtime figures the ledger
// differences over the timed window.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, the runtime's own estimate
}

const (
	metricHeapLive = "/gc/heap/live:bytes"
	metricAllocs   = "/gc/heap/allocs:bytes"
	metricGCCycles = "/gc/cycles/total:gc-cycles"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// sub returns the growth of the counters since earlier.
func (c runtimeCounters) sub(earlier runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - earlier.allocBytes,
		gcCycles:   c.gcCycles - earlier.gcCycles,
		gcCPU:      c.gcCPU - earlier.gcCPU,
		totalCPU:   c.totalCPU - earlier.totalCPU,
	}
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricGCCycles}, {Name: metricGCCPU}, {Name: metricTotalCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapLiveBytes is the heap the last completed GC cycle found live —
// the retained working set, unlike an instantaneous HeapAlloc reading
// that swings with where in a GC cycle the sample lands.
func heapLiveBytes() float64 {
	s := []metrics.Sample{{Name: metricHeapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// samplePeriod is the 4 Hz sampling interval.
const samplePeriod = 250 * time.Millisecond

// sampler is the benchmark's one background goroutine: at 4 Hz it
// samples the live heap (inside the timed window only) and tracks the
// peak number of in-flight sessions any node reports.
type sampler struct {
	inFlight []func() int

	inWindow atomic.Bool
	quit     chan struct{}
	done     chan struct{}
	once     sync.Once

	heap []float64
	peak int
}

// startSampler starts the goroutine; inFlight may be empty (simulator
// workload: heap only).
func startSampler(inFlight []func() int) *sampler {
	s := &sampler{inFlight: inFlight, quit: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *sampler) openWindow()  { s.inWindow.Store(true) }
func (s *sampler) closeWindow() { s.inWindow.Store(false) }

func (s *sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			if s.inWindow.Load() {
				s.heap = append(s.heap, heapLiveBytes())
			}
			for _, f := range s.inFlight {
				if v := f(); v > s.peak {
					s.peak = v
				}
			}
		}
	}
}

// stop ends the goroutine (waiting for it) and returns the heap samples
// and the in-flight peak. Idempotent.
func (s *sampler) stop() (heap []float64, peak int) {
	s.once.Do(func() {
		close(s.quit)
		<-s.done
	})
	return s.heap, s.peak
}
