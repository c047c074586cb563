// Package coinpool amortizes common-coin dealing across the concurrent
// ACS sessions of a service node. Classic operation pays a full MW-SVSS
// dealing setup — n sessions of n² moderated sharings each, the "n+2n²
// echo storm" — for every coin round of every binary agreement. The
// pool instead runs at most ONE batched dealing round per ACS session
// on the session's proposal-plane stack: each process deals a single
// SVSS session carrying n_aba × rounds × n lottery secrets, and the n
// binary agreements of the session consume disjoint slots of that batch
// as their coin rounds fire. Setup quorum traffic is paid once per
// (session, dealer) instead of once per (ABA, coin round, dealer,
// target).
//
// Dealing is on demand. Opening a supply installs the plane's KindCoin
// consumer and nothing else; a process deals its batch the first time
// any agreement of the session starts a pooled coin round
// (coin.Engine.Start → Consumer.EnsureDealt), once per supply. The
// agreements internal/acs composes carry a known-coin prefix, so a
// session whose agreements all decide inside the prefix — every
// fault-free session — deals nothing and reconstructs nothing. A
// process serves peers' dealings on the plane stack whether or not it
// has dealt itself.
//
// Liveness is the classic protocol's argument: there a process deals
// coin round r's secrets when its agreement reaches round r, and here
// it deals (for every round the batch covers) when its first agreement
// of the session reaches a real coin round — no later than the classic
// protocol would have dealt that round. A peer whose agreement never
// gets there halted it on n−t DECIDEs, of which at least t+1 are
// honest, so DECIDE amplification decides the process still waiting
// for a coin without it; if no honest peer has halted, every one of the
// at least n−t honest processes in that agreement reaches the round,
// deals, and the round has its t+1 dealers.
//
// Safety rests on three arguments, asserted in tests:
//
//   - One-shot handout. A slot (one dealt secret of one dealer) is
//     reconstructed at most once, ever; Supply.Reconstruct records every
//     handout in a bitset and counts (never performs) duplicates. Reuse
//     would correlate two coin rounds and break the (1/4,1/4) bound.
//   - Per-slot hiding. Reconstruction reveals exactly the requested
//     slot (internal/mwsvss reveals per-slot shares, not dealt vectors),
//     so slots still pooled stay uniform and unknown to the adversary.
//   - Plane-outlives-ABAs retirement. The dealings live on the plane
//     scope, so the plane retires only after every ABA scope of the
//     session halted; by then n−t DECIDE amplification finishes the
//     cluster without further coin reconstructions from this process.
//     The same holds for a plane that never dealt: all its agreements
//     halted on n−t DECIDEs, so whoever still runs a coin round in this
//     session — and would have counted on this process's share-phase
//     echoes or its own dealing — decides by amplification instead.
package coinpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"svssba/internal/coin"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/intern"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// Config sizes a pool.
type Config struct {
	// N, T are the cluster's agreement parameters.
	N, T int
	// Self is the owning process.
	Self sim.ProcID
	// Rounds is the number of coin rounds per binary agreement covered
	// by the pooled dealing (later rounds fall back to classic per-round
	// dealing). The batch width is N*Rounds*N secrets per dealer.
	Rounds int
}

// Validate checks the batch width fits the MW-SVSS slot bound.
func (c Config) Validate() error {
	if c.Rounds < 1 {
		return fmt.Errorf("coinpool: rounds %d < 1", c.Rounds)
	}
	if w := c.Width(); w > mwsvss.MaxBatchSlots {
		return fmt.Errorf("coinpool: width %d (n=%d rounds=%d) exceeds %d slots",
			w, c.N, c.Rounds, mwsvss.MaxBatchSlots)
	}
	return nil
}

// Width is the per-dealer batch width: n agreements × Rounds coin
// rounds × n attach targets.
func (c Config) Width() int { return c.N * c.Rounds * c.N }

// slotOf flattens (agreement j, coin round r, target) into a batch
// slot: agreement-major, then round, then target — so one agreement's
// slots are contiguous and low agreements use low slots.
func (c Config) slotOf(abaJ int, r uint64, target sim.ProcID) int {
	return ((abaJ-1)*c.Rounds+int(r)-1)*c.N + int(target) - 1
}

// Stats is an atomic snapshot of the pool gauges.
type Stats struct {
	// Depth is the number of dealt-and-unconsumed slots across live
	// supplies (a dealer's slots enter when its batch share completes
	// locally, leave one per handout or when the supply releases).
	Depth int64
	// Reserved is the number of slots of this process's own dealings
	// still in flight (charged when a supply deals, moving to Depth when
	// that dealing share-completes locally, returned when the supply
	// releases first).
	Reserved int64
	// Refills counts dealings this process started (at most one per
	// supply; a supply nobody drew a coin from starts none).
	Refills int64
	// Handouts counts slots handed out (one-shot, each to one coin
	// round).
	Handouts int64
	// DoubleHandouts counts handout requests for an already-consumed
	// slot. Must be zero: a reuse would correlate coin rounds.
	DoubleHandouts int64
	// Live is the number of live supplies (sessions holding pool state).
	Live int64
}

// Pool owns the per-session supplies of one service node. A Supply's
// internals are confined to the node's delivery goroutine, where the
// driver calls them; the mutex guards only the supplies map. Stats is
// safe anywhere.
type Pool struct {
	cfg Config

	mu       sync.Mutex // guards supplies (the map only, not Supply state)
	supplies map[uint64]*Supply

	depth, reserved, refills, handouts, doubleHandouts, live atomic.Int64
}

// New builds a pool. Call Validate on the config first.
func New(cfg Config) *Pool {
	return &Pool{cfg: cfg, supplies: make(map[uint64]*Supply)}
}

// Rounds returns the configured coin-round coverage.
func (p *Pool) Rounds() int { return p.cfg.Rounds }

// Stats snapshots the pool gauges (safe from any goroutine).
func (p *Pool) Stats() Stats {
	return Stats{
		Depth:          p.depth.Load(),
		Reserved:       p.reserved.Load(),
		Refills:        p.refills.Load(),
		Handouts:       p.handouts.Load(),
		DoubleHandouts: p.doubleHandouts.Load(),
		Live:           p.live.Load(),
	}
}

// Supply returns session sid's supply (nil when none).
func (p *Pool) Supply(sid uint64) *Supply {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.supplies[sid]
}

// Supply is one ACS session's slice of the pool: the batched dealings
// hosted on that session's plane stack, the handout ledger, and the
// per-agreement consumers.
type Supply struct {
	pool  *Pool
	sid   uint64
	plane *planeRef

	order     []sim.ProcID // dealers whose batch share completed locally
	done      intern.ProcSet
	handed    intern.Bits // (dealer-1)*width + slot
	consumers []*Consumer // 1..n by agreement slot
	dealing   bool        // own batch dealt and not yet share-complete locally
	released  bool
}

// planeRef is what the supply needs from the plane scope: the stack
// whose SVSS hosts the dealings, a scoped send context, and a way to
// mark the scope touched after mutating it.
type planeRef struct {
	stack *core.Stack
	ctx   sim.Context
	touch func()
}

// Open creates the supply for session sid and installs the KindCoin
// consumer on the plane stack, so peers' dealings are served from the
// start. It deals nothing: this process's batch goes out through the
// plane's scoped context on the first EnsureDealt. Call from the plane
// scope's Opened hook.
func (p *Pool) Open(sid uint64, st *core.Stack, ctx sim.Context, touch func()) *Supply {
	s := &Supply{
		pool:      p,
		sid:       sid,
		plane:     &planeRef{stack: st, ctx: ctx, touch: touch},
		consumers: make([]*Consumer, p.cfg.N+1),
	}
	p.mu.Lock()
	if prev := p.supplies[sid]; prev != nil {
		p.mu.Unlock()
		return prev
	}
	p.supplies[sid] = s
	p.mu.Unlock()
	p.live.Add(1)
	st.ConsumeSVSS(proto.KindCoin, core.SVSSConsumer{
		ShareComplete: s.onShareComplete,
		ReconComplete: s.onReconComplete,
	})
	return s
}

// deal shares this process's batch — width independent uniform lottery
// secrets — on the plane stack, once per supply.
func (s *Supply) deal() {
	p := s.pool
	if s.dealing || s.done.Has(p.cfg.Self) || s.released {
		return
	}
	s.dealing = true
	p.refills.Add(1)
	p.reserved.Add(int64(p.cfg.Width()))
	ctx := s.plane.ctx
	u := uint64(p.cfg.N)
	u = u * u * u * u
	secrets := make([]field.Element, p.cfg.Width())
	for i := range secrets {
		secrets[i] = field.New(uint64(ctx.Rand().Int63n(int64(u))))
	}
	s.plane.touch()
	// Errors cannot occur: we are the dealer and the session is new.
	_ = s.plane.stack.SVSS.ShareVec(ctx, coin.BatchSessionFor(p.cfg.Self), secrets)
}

// Attach wires agreement slot j's coin engine to this supply and
// replays dealings that completed before the agreement's scope opened.
// abaCtx/abaTouch scope the engine's sends and retirement bookkeeping.
func (s *Supply) Attach(j int, eng *coin.Engine, abaCtx sim.Context, abaTouch func()) *Consumer {
	c := &Consumer{sup: s, j: j, eng: eng, ctx: abaCtx, touch: abaTouch}
	s.consumers[j] = c
	eng.SetSupply(c)
	return c
}

// Detach drops agreement slot j's consumer (its scope retired); later
// dealing and reconstruction events for it are discarded.
func (s *Supply) Detach(j int) {
	if j >= 1 && j < len(s.consumers) {
		s.consumers[j] = nil
	}
}

// Release drops the supply when its session's plane retires, returning
// unconsumed state to the gauges. Idempotent.
func (p *Pool) Release(sid uint64) {
	p.mu.Lock()
	s := p.supplies[sid]
	if s == nil || s.released {
		p.mu.Unlock()
		return
	}
	s.released = true
	delete(p.supplies, sid)
	p.mu.Unlock()
	p.live.Add(-1)
	width := int64(p.cfg.Width())
	if s.dealing {
		p.reserved.Add(-width)
	}
	p.depth.Add(-(int64(s.done.Count())*width - int64(s.handed.Count())))
}

// onShareComplete runs on the plane stack's SVSS completion path:
// dealer sid.Dealer's batch is locally shared; every pooled coin round
// of every attached agreement can now count it.
func (s *Supply) onShareComplete(_ sim.Context, svsid proto.SessionID) {
	if svsid.Index != 0 || s.released {
		return // not a batched dealing (classic coin never lives here)
	}
	k := svsid.Dealer
	if !s.done.Add(k) {
		return
	}
	s.order = append(s.order, k)
	if s.dealing && k == s.pool.cfg.Self {
		s.dealing = false
		s.pool.reserved.Add(-int64(s.pool.cfg.Width()))
	}
	s.pool.depth.Add(int64(s.pool.cfg.Width()))
	for j := 1; j < len(s.consumers); j++ {
		if c := s.consumers[j]; c != nil {
			c.touch()
			c.eng.OnBatchShareDone(c.ctx, k)
		}
	}
}

// onReconComplete routes a reconstructed batch slot to the agreement
// that owns it.
func (s *Supply) onReconComplete(_ sim.Context, svsid proto.SessionID, slot int, out svss.Output) {
	if svsid.Index != 0 || s.released {
		return
	}
	cfg := s.pool.cfg
	perABA := cfg.Rounds * cfg.N
	j := slot/perABA + 1
	if j < 1 || j >= len(s.consumers) {
		return
	}
	rem := slot % perABA
	r := uint64(rem/cfg.N) + 1
	target := sim.ProcID(rem%cfg.N) + 1
	if c := s.consumers[j]; c != nil {
		c.touch()
		c.eng.OnBatchRecon(c.ctx, svsid.Dealer, r, target, out)
	}
}

// Consumer adapts one agreement's view of the supply to the coin
// engine's Supply port.
type Consumer struct {
	sup   *Supply
	j     int
	eng   *coin.Engine
	ctx   sim.Context
	touch func()
}

var _ coin.Supply = (*Consumer)(nil)

// Rounds implements coin.Supply.
func (c *Consumer) Rounds() int { return c.sup.pool.cfg.Rounds }

// EnsureDealt implements coin.Supply: the first pooled coin round any
// agreement of the session starts deals this process's batch. The
// dealing goes out through the plane's context, not the caller's.
func (c *Consumer) EnsureDealt(sim.Context) { c.sup.deal() }

// DoneOrder implements coin.Supply.
func (c *Consumer) DoneOrder() []sim.ProcID { return c.sup.order }

// Reconstruct implements coin.Supply: hand out the slots holding dealer
// k's secrets attached to the given targets in round r of this
// agreement, opening their reconstructions on the plane stack as one
// grouped request (revealed together in one slab). One-shot: a slot requested twice is counted and refused.
func (c *Consumer) Reconstruct(_ sim.Context, k sim.ProcID, r uint64, targets []sim.ProcID) {
	s := c.sup
	cfg := s.pool.cfg
	slots := make([]int, 0, len(targets))
	for _, target := range targets {
		slot := cfg.slotOf(c.j, r, target)
		idx := (int(k)-1)*cfg.Width() + slot
		if !s.handed.Add(idx) {
			s.pool.doubleHandouts.Add(1)
			continue
		}
		s.pool.handouts.Add(1)
		s.pool.depth.Add(-1)
		slots = append(slots, slot)
	}
	if len(slots) == 0 {
		return
	}
	s.plane.touch()
	s.plane.stack.SVSS.ReconstructSlots(s.plane.ctx, coin.BatchSessionFor(k), slots)
}
