// Package obs is the runtime observability layer: a metrics registry
// whose instruments are safe for concurrent use and free of allocation
// on the update path, a ring-buffered protocol round tracer with JSONL
// export, an HTTP introspection server (metric snapshots + pprof), and
// a periodic one-line reporter for long runs.
//
// The package deliberately depends on nothing but the standard library:
// protocol packages adapt their identifiers (proc ids, tags, scopes) to
// plain integers at the hook site, so obs can sit under any layer
// without import cycles.
//
// Instrumentation is observation-only by contract: nothing in this
// package feeds back into protocol behavior, so a run with metrics and
// tracing attached is byte-identical to one without (the obs parity
// test pins this on the deterministic simulator).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. Update is one atomic
// add: safe from any goroutine, zero allocations.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative for the value to stay monotone;
// nothing enforces it).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value. Safe from any goroutine, zero
// allocations.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative deltas allowed).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket int64 histogram: bucket i counts
// observations v <= Bounds[i]; one extra overflow bucket counts the
// rest. Observe is a bucket search plus three atomic adds — safe from
// any goroutine, zero allocations. Bounds are fixed at registration, so
// snapshots from different nodes of one registry are directly
// summable.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// snapshot captures the histogram's state. Buckets are read without a
// global lock, so a snapshot taken mid-update can be off by in-flight
// observations — fine for monitoring, documented for tests.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
		Bounds: h.bounds, // immutable after registration
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n bucket bounds starting at start, each factor
// times the previous, rounded up to stay strictly increasing. The
// standard latency/size bucket shape.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	bounds := make([]int64, 0, n)
	f := float64(start)
	last := int64(0)
	for i := 0; i < n; i++ {
		b := int64(f)
		if b <= last {
			b = last + 1
		}
		bounds = append(bounds, b)
		last = b
		f *= factor
	}
	return bounds
}

// Registry holds named instruments. Registration (Counter, Gauge,
// Histogram, GaugeFunc) takes a lock and may allocate; it is meant for
// setup time, and registering an existing name returns the existing
// instrument (with matching type) so restarts re-register harmlessly.
// The instruments themselves never touch the registry again — the hot
// path is entirely atomic operations on the instrument.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	gaugeFns  map[string]func() int64
	nameOrder []string // registration order, for stable text output
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]func() int64),
	}
}

func (r *Registry) noteName(name string) {
	r.nameOrder = append(r.nameOrder, name)
}

// Counter returns the counter registered under name, creating it on
// first use. Panics if the name is already a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	r.noteName(name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	r.noteName(name)
	return g
}

// GaugeFunc registers (or replaces) a pull-based gauge: fn is invoked
// at snapshot time, off the hot path. fn must be safe to call from any
// goroutine and should not block; a slow fn slows every snapshot.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFns[name]; !ok {
		r.checkFreeLocked(name, "gaugefunc")
		r.noteName(name)
	}
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (bounds must be sorted
// ascending; they are copied). Re-registering returns the existing
// histogram; its original bounds win.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	if len(bounds) == 0 {
		bounds = ExpBuckets(1, 2, 20)
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	r.noteName(name)
	return h
}

func (r *Registry) checkFreeLocked(name, kind string) {
	for _, m := range []string{"counter", "gauge", "gaugefunc", "histogram"} {
		if m == kind {
			continue
		}
		var taken bool
		switch m {
		case "counter":
			_, taken = r.counters[name]
		case "gauge":
			_, taken = r.gauges[name]
		case "gaugefunc":
			_, taken = r.gaugeFns[name]
		case "histogram":
			_, taken = r.hists[name]
		}
		if taken {
			panic(fmt.Sprintf("obs: %q already registered as a %s, requested as %s", name, m, kind))
		}
	}
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last = overflow
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the holding bucket. Values in the overflow
// bucket report the last bound (a floor, clearly marked by Max).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		hi := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		return float64(lo) + frac*float64(hi-lo)
	}
	return float64(s.Max)
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// in the expvar spirit: one JSON document, stable keys.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument. Gauge functions run outside the
// registry lock, so a function that itself registers metrics cannot
// deadlock (it will be missed by this snapshot and caught by the next).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)+len(r.gaugeFns)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	r.mu.Unlock()
	for name, fn := range fns {
		s.Gauges[name] = fn()
	}
	return s
}

// WriteJSON writes the snapshot as one indented JSON document
// (encoding/json sorts map keys, so output is diffable).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
