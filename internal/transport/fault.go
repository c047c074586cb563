package transport

import (
	"math/rand"
	"sync"
	"time"

	"svssba/internal/sim"
)

// FaultConfig describes transport-level faults injected on the outbound
// side of one endpoint. This is where the cluster harness models lossy
// and slow links without touching protocol code: a crash is Close, a
// slow link is MaxDelay, a lossy sender is DropProb.
type FaultConfig struct {
	// Seed drives the drop and delay randomness.
	Seed int64
	// DropProb is the probability in [0,1) that an outbound frame is
	// silently discarded. A dropping endpoint behaves like a partially
	// silent Byzantine process and must be counted against the fault
	// budget t when asserting agreement.
	DropProb float64
	// MaxDelay, when positive, delays each outbound frame by a uniform
	// random duration in [0, MaxDelay). Delays are per-frame, so frames
	// on one link can reorder — legal asynchrony, safe on honest nodes.
	MaxDelay time.Duration
}

// FaultLink wraps a Transport, injecting the configured faults on Send.
// The receive side (Ready, Take, Recv) and the lifecycle pass through to
// the inner transport.
type FaultLink struct {
	inner Transport
	cfg   FaultConfig

	mu  sync.Mutex
	rnd *rand.Rand
}

var _ Transport = (*FaultLink)(nil)

// WithFaults wraps tr with outbound fault injection. A zero cfg (no
// drop, no delay) returns tr unchanged.
func WithFaults(tr Transport, cfg FaultConfig) Transport {
	if cfg.DropProb == 0 && cfg.MaxDelay == 0 {
		return tr
	}
	return &FaultLink{
		inner: tr,
		cfg:   cfg,
		rnd:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (f *FaultLink) Self() sim.ProcID                 { return f.inner.Self() }
func (f *FaultLink) Start() error                     { return f.inner.Start() }
func (f *FaultLink) Ready() <-chan struct{}           { return f.inner.Ready() }
func (f *FaultLink) Take(buf []Frame) ([]Frame, bool) { return f.inner.Take(buf) }
func (f *FaultLink) Recv() <-chan Frame               { return f.inner.Recv() }
func (f *FaultLink) Close() error                     { return f.inner.Close() }

func (f *FaultLink) Send(to sim.ProcID, data []byte) error {
	f.mu.Lock()
	drop := f.cfg.DropProb > 0 && f.rnd.Float64() < f.cfg.DropProb
	var delay time.Duration
	if !drop && f.cfg.MaxDelay > 0 {
		delay = time.Duration(f.rnd.Int63n(int64(f.cfg.MaxDelay)))
	}
	f.mu.Unlock()
	if drop {
		return nil
	}
	if delay == 0 {
		return f.inner.Send(to, data)
	}
	time.AfterFunc(delay, func() {
		// The inner transport drops frames sent after Close, so a
		// late-firing timer on a stopped endpoint is harmless.
		_ = f.inner.Send(to, data)
	})
	return nil
}
