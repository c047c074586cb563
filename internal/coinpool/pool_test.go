package coinpool

import (
	"testing"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 4, T: 1, Self: 1, Rounds: 0}).Validate(); err == nil {
		t.Error("rounds 0 accepted")
	}
	// 4*33*4 = 528 > svss.MaxBatchSlots (512): each secret takes two
	// of the 1024 MW-SVSS batch slots.
	if err := (Config{N: 4, T: 1, Self: 1, Rounds: 33}).Validate(); err == nil {
		t.Error("oversized batch width accepted")
	}
	if err := (Config{N: 4, T: 1, Self: 1, Rounds: 32}).Validate(); err != nil {
		t.Errorf("widest batch rejected: %v", err)
	}
	cfg := Config{N: 4, T: 1, Self: 1, Rounds: 4}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if w := cfg.Width(); w != 64 {
		t.Errorf("width = %d, want 64", w)
	}
}

// TestSlotLayoutInjective pins the slot map: every (agreement, round,
// target) triple gets a distinct in-range slot, agreement-major — the
// property the one-shot handout ledger and the recon router both build
// on.
func TestSlotLayoutInjective(t *testing.T) {
	cfg := Config{N: 4, T: 1, Self: 1, Rounds: 3}
	seen := make(map[int]bool, cfg.Width())
	for j := 1; j <= cfg.N; j++ {
		for r := uint64(1); r <= uint64(cfg.Rounds); r++ {
			for target := sim.ProcID(1); int(target) <= cfg.N; target++ {
				s := cfg.slotOf(j, r, target)
				if s < 0 || s >= cfg.Width() {
					t.Fatalf("slotOf(%d,%d,%d) = %d out of [0,%d)", j, r, target, s, cfg.Width())
				}
				if seen[s] {
					t.Fatalf("slotOf(%d,%d,%d) = %d collides", j, r, target, s)
				}
				seen[s] = true
				// Agreement-major: everything of agreement j sits below
				// agreement j+1's first slot.
				if j < cfg.N && s >= cfg.slotOf(j+1, 1, 1) {
					t.Fatalf("slot %d of agreement %d not below agreement %d", s, j, j+1)
				}
			}
		}
	}
	if len(seen) != cfg.Width() {
		t.Fatalf("%d distinct slots, want %d", len(seen), cfg.Width())
	}
}

// poolCluster is a sim-backed harness: n full protocol stacks over the
// deterministic network, each with its own pool, supplies opened for
// one shared session id.
type poolCluster struct {
	nw      *sim.Network
	stacks  map[sim.ProcID]*core.Stack
	pools   map[sim.ProcID]*Pool
	shunned int
}

// newPoolCluster builds the harness. Supplies are opened from each
// process's Init hook only for ids in open; a process left out still
// runs its stack (it serves peers' share phases) but has no pool.
// Opening deals nothing — tests deal through deal or a coin round.
func newPoolCluster(t *testing.T, n, tf, rounds int, seed int64, open map[sim.ProcID]bool) *poolCluster {
	t.Helper()
	c := &poolCluster{
		nw:     sim.NewNetwork(n, tf, seed),
		stacks: make(map[sim.ProcID]*core.Stack, n),
		pools:  make(map[sim.ProcID]*Pool, n),
	}
	for i := 1; i <= n; i++ {
		id := sim.ProcID(i)
		st := core.NewStack(id, func(sim.ProcID, proto.MWID) { c.shunned++ })
		c.stacks[id] = st
		if open[id] {
			cfg := Config{N: n, T: tf, Self: id, Rounds: rounds}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			p := New(cfg)
			c.pools[id] = p
			st.Node.AddInit(func(ctx sim.Context) {
				p.Open(1, st, ctx, func() {})
			})
		}
		if err := c.nw.Register(st.Node); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if err := c.nw.Init(); err != nil { // opens the supplies
		t.Fatal(err)
	}
	return c
}

// inject runs fn on process id's delivery path.
func (c *poolCluster) inject(t *testing.T, id sim.ProcID, fn func(ctx sim.Context)) {
	t.Helper()
	if err := c.nw.Inject(id, fn); err != nil {
		t.Fatal(err)
	}
}

// deal makes the listed processes deal their batch the way a coin
// engine's first pooled round does: EnsureDealt on a consumer of the
// supply (detached from any engine — the gauges are under test).
func (c *poolCluster) deal(t *testing.T, ids ...sim.ProcID) {
	t.Helper()
	for _, id := range ids {
		cons := &Consumer{sup: c.pools[id].Supply(1), j: 1, touch: func() {}}
		c.inject(t, id, func(ctx sim.Context) {
			cons.EnsureDealt(ctx)
			cons.EnsureDealt(ctx) // once per supply
		})
	}
}

func (c *poolCluster) mustReach(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if _, err := c.nw.RunUntil(cond, 100_000_000); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !cond() {
		t.Fatalf("%s: network quiesced before condition held", what)
	}
}

func (c *poolCluster) mustQuiesce(t *testing.T) {
	t.Helper()
	if _, err := c.nw.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
}

var allFour = map[sim.ProcID]bool{1: true, 2: true, 3: true, 4: true}

// TestPoolUndealtSupplyReleases pins the common case of a service whose
// sessions nobody contests: a supply that was opened, never asked for a
// coin and released charged nothing and sent nothing.
func TestPoolUndealtSupplyReleases(t *testing.T) {
	const n, tf, rounds = 4, 1, 2
	c := newPoolCluster(t, n, tf, rounds, 7, allFour)
	c.mustQuiesce(t)
	if st := c.nw.Stats(); st.Sent != 0 {
		t.Fatalf("opening the supplies sent %d messages, want 0", st.Sent)
	}
	for id, p := range c.pools {
		if st := p.Stats(); st != (Stats{Live: 1}) {
			t.Fatalf("proc %d: gauges after open: %+v, want only Live=1", id, st)
		}
		sup := p.Supply(1)
		p.Release(1)
		p.Release(1) // idempotent
		if st := p.Stats(); st != (Stats{}) {
			t.Fatalf("proc %d: gauges after releasing an undealt supply: %+v", id, st)
		}
		// A coin round that straggles in after release deals nothing.
		(&Consumer{sup: sup}).EnsureDealt(nil)
		if st := p.Stats(); st != (Stats{}) {
			t.Fatalf("proc %d: EnsureDealt on a released supply moved gauges: %+v", id, st)
		}
	}
}

// TestPoolOneShotHandoutAndRelease drives the full supply lifecycle on
// a real stack cluster: the first demand deals and fills the depth
// gauge, handouts are one-shot (duplicates counted, never performed),
// and Release returns every gauge to zero — the no-leak identity the
// service layer asserts after every session.
func TestPoolOneShotHandoutAndRelease(t *testing.T) {
	const n, tf, rounds = 4, 1, 1
	c := newPoolCluster(t, n, tf, rounds, 11, allFour)
	width := Config{N: n, Rounds: rounds}.Width() // 16

	// Demand on every process: each deals exactly once and holds its own
	// batch reserved while the share phase is in flight.
	c.deal(t, 1, 2, 3, 4)
	for id, p := range c.pools {
		st := p.Stats()
		if st.Refills != 1 || st.Reserved != int64(width) || st.Depth != 0 || st.Live != 1 {
			t.Fatalf("proc %d: gauges after dealing: %+v", id, st)
		}
	}

	// Every dealer's batch share-completes at every process; depth fills
	// to n*width and the reservations drain into it.
	c.mustReach(t, "dealings", func() bool {
		for _, p := range c.pools {
			if p.Stats().Depth != int64(n*width) {
				return false
			}
		}
		return true
	})
	for id, p := range c.pools {
		st := p.Stats()
		if st.Refills != 1 || st.Reserved != 0 || st.Live != 1 || st.Handouts != 0 || st.DoubleHandouts != 0 {
			t.Fatalf("proc %d: gauges after share-complete: %+v", id, st)
		}
	}

	// Symmetric handouts on every process (agreement 2, round 1, three
	// targets of dealer 1), so the plane reconstructions complete
	// cluster-wide. The consumer is detached from any coin engine:
	// routing of completed slots is covered by the coin-round test below
	// and at the service layer; here the ledger and gauges are the
	// contract under test.
	targets := []sim.ProcID{1, 2, 3}
	recon := func(ks []sim.ProcID, tg []sim.ProcID) {
		for id := range c.pools {
			sup := c.pools[id].Supply(1)
			cons := &Consumer{sup: sup, j: 2, touch: func() {}}
			c.inject(t, id, func(sim.Context) {
				for _, k := range ks {
					cons.Reconstruct(nil, k, 1, tg)
				}
			})
		}
	}
	recon([]sim.ProcID{1}, targets)
	for id, p := range c.pools {
		st := p.Stats()
		if st.Handouts != 3 || st.Depth != int64(n*width-3) || st.DoubleHandouts != 0 {
			t.Fatalf("proc %d: gauges after handout: %+v", id, st)
		}
	}

	// The same request again: every slot already handed out — counted,
	// refused, depth untouched.
	recon([]sim.ProcID{1}, targets)
	for id, p := range c.pools {
		st := p.Stats()
		if st.Handouts != 3 || st.DoubleHandouts != 3 || st.Depth != int64(n*width-3) {
			t.Fatalf("proc %d: gauges after duplicate: %+v", id, st)
		}
	}

	// Overlapping request {3,4}: one fresh slot, one duplicate.
	recon([]sim.ProcID{1}, []sim.ProcID{3, 4})
	for id, p := range c.pools {
		st := p.Stats()
		if st.Handouts != 4 || st.DoubleHandouts != 4 || st.Depth != int64(n*width-4) {
			t.Fatalf("proc %d: gauges after overlap: %+v", id, st)
		}
	}

	// Drain the reveal traffic the handouts opened; an honest cluster
	// must not shun.
	c.mustQuiesce(t)
	if c.shunned != 0 {
		t.Fatalf("%d shuns in honest run", c.shunned)
	}

	// Release: with all n dealings complete and 4 slots handed out the
	// accounting identity must land every gauge on exactly zero.
	for id, p := range c.pools {
		p.Release(1)
		p.Release(1) // idempotent
		st := p.Stats()
		if st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
			t.Fatalf("proc %d: gauges after release: %+v", id, st)
		}
	}
}

// TestPoolReleaseMidRefill releases supplies while dealings are still
// in flight: process 1 right after dealing (its own batch reserved, no
// dealer complete), processes 2 and 3 once the three dealers that exist
// completed (process 4 never opens a supply and never deals, the
// vanished dealer). Release must hand back whatever is charged at that
// moment — no gauge may leak — and events that straggle in after
// release must be ignored.
func TestPoolReleaseMidRefill(t *testing.T) {
	const n, tf, rounds = 4, 1, 1
	c := newPoolCluster(t, n, tf, rounds, 13, map[sim.ProcID]bool{1: true, 2: true, 3: true})
	width := Config{N: n, Rounds: rounds}.Width()

	c.deal(t, 1, 2, 3)
	p1, sup1 := c.pools[1], c.pools[1].Supply(1)
	if st := p1.Stats(); st.Reserved != int64(width) || st.Depth != 0 || st.Refills != 1 {
		t.Fatalf("proc 1: gauges with own dealing in flight: %+v", st)
	}
	p1.Release(1)
	if st := p1.Stats(); st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
		t.Fatalf("proc 1: gauges after releasing with own dealing in flight: %+v", st)
	}

	// Dealers 1..3 complete at the processes still holding a supply
	// (process 1's stack keeps serving its dealing); nothing is ever
	// charged for dealer 4.
	c.mustReach(t, "partial dealings", func() bool {
		return c.pools[2].Stats().Depth == int64(3*width) && c.pools[3].Stats().Depth == int64(3*width)
	})
	c.mustQuiesce(t)
	if st := p1.Stats(); st.Depth != 0 || st.Reserved != 0 {
		t.Fatalf("proc 1: completions after release leaked state: %+v", st)
	}
	for _, id := range []sim.ProcID{2, 3} {
		p := c.pools[id]
		st := p.Stats()
		if st.Reserved != 0 || st.Depth != int64(3*width) || st.Live != 1 {
			t.Fatalf("proc %d: gauges mid-refill: %+v", id, st)
		}
		sup := p.Supply(1)
		p.Release(1)
		st = p.Stats()
		if st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
			t.Fatalf("proc %d: gauges after mid-refill release: %+v", id, st)
		}
		// A share completion landing after release (the vanished dealer's
		// batch finally arriving) must not resurrect any gauge.
		sup.onShareComplete(nil, proto.SessionID{Dealer: 4, Kind: proto.KindCoin})
		sup.onReconComplete(nil, proto.SessionID{Dealer: 1, Kind: proto.KindCoin}, 0, svss.Output{})
		if st := p.Stats(); st.Depth != 0 || st.Reserved != 0 || st.Handouts != 0 {
			t.Fatalf("proc %d: late event leaked state: %+v", id, st)
		}
	}
	sup1.onShareComplete(nil, proto.SessionID{Dealer: 1, Kind: proto.KindCoin})
	if st := p1.Stats(); st.Depth != 0 || st.Reserved != 0 {
		t.Fatalf("proc 1: own completion after release leaked state: %+v", st)
	}
	if c.shunned != 0 {
		t.Fatalf("%d shuns in crash-only run", c.shunned)
	}
}

// TestPoolPeerDealsFirst runs real coin rounds over the supplies: the
// stacks' own coin engines are attached as agreement 1, processes 1..3
// start pooled round 1 and deal, and process 4 — which serves their
// dealings and the round without having dealt — deals only when its own
// engine starts the round. Everyone must get the same bit, every
// dealing must end up counted, and no slot may be handed out twice.
func TestPoolPeerDealsFirst(t *testing.T) {
	const n, tf, rounds = 4, 1, 1
	c := newPoolCluster(t, n, tf, rounds, 17, allFour)
	width := Config{N: n, Rounds: rounds}.Width()
	start := func(ids ...sim.ProcID) {
		for _, id := range ids {
			st := c.stacks[id]
			c.inject(t, id, func(ctx sim.Context) {
				sup := c.pools[id].Supply(1)
				if sup.consumers[1] == nil {
					sup.Attach(1, st.Coin, ctx, func() {})
				}
				st.Coin.Start(ctx, 1)
			})
		}
	}
	// Process 4 attaches its engine (its agreement scope is open) but
	// has not reached the round.
	c.inject(t, 4, func(ctx sim.Context) {
		c.pools[4].Supply(1).Attach(1, c.stacks[4].Coin, ctx, func() {})
	})
	start(1, 2, 3)
	c.mustReach(t, "peers' dealings at process 4", func() bool {
		return c.pools[4].Stats().Depth+c.pools[4].Stats().Handouts == int64(3*width)
	})
	c.mustQuiesce(t)
	if st := c.pools[4].Stats(); st.Refills != 0 || st.Reserved != 0 {
		t.Fatalf("proc 4 dealt before its own round: %+v", st)
	}

	start(4)
	if st := c.pools[4].Stats(); st.Refills != 1 || st.Reserved != int64(width) {
		t.Fatalf("proc 4: gauges after its first real round: %+v", st)
	}
	c.mustQuiesce(t)
	bit, ok := c.stacks[1].Coin.Bit(1)
	if !ok {
		t.Fatal("coin round 1 did not finish at process 1")
	}
	for id, p := range c.pools {
		if b, ok := c.stacks[id].Coin.Bit(1); !ok || b != bit {
			t.Errorf("proc %d: coin = (%d,%v), want (%d,true)", id, b, ok, bit)
		}
		st := p.Stats()
		if st.Refills != 1 || st.Reserved != 0 || st.Handouts == 0 || st.DoubleHandouts != 0 {
			t.Errorf("proc %d: gauges after the round: %+v", id, st)
		}
		if st.Depth+st.Handouts != int64(n*width) {
			t.Errorf("proc %d: depth %d + handouts %d != %d dealt slots", id, st.Depth, st.Handouts, n*width)
		}
		p.Release(1)
		if st := p.Stats(); st.Live != 0 || st.Depth != 0 || st.Reserved != 0 {
			t.Errorf("proc %d: gauges after release: %+v", id, st)
		}
	}
	if c.shunned != 0 {
		t.Fatalf("%d shuns in honest run", c.shunned)
	}
}

// TestPoolCoinRoundsWithCrashedPeer runs two pooled coin rounds with
// process 4 crashed from the start (it opens no supply and never
// deals): processes 1..3 attach their stacks' coin engines as agreement
// 1 and draw both rounds from the batches the three live dealers
// share. Every live process must output both rounds with a clean
// ledger, and the pooled run must send fewer messages than the same two
// rounds dealt classically on the same harness with no supply opened.
// Coin bits are not compared: SCC does not promise that they agree.
func TestPoolCoinRoundsWithCrashedPeer(t *testing.T) {
	const n, tf, rounds = 4, 1, 2
	live := []sim.ProcID{1, 2, 3}
	run := func(open map[sim.ProcID]bool) *poolCluster {
		c := newPoolCluster(t, n, tf, rounds, 23, open)
		c.nw.Crash(4)
		for _, id := range live {
			if open[id] {
				st := c.stacks[id]
				c.inject(t, id, func(ctx sim.Context) {
					c.pools[id].Supply(1).Attach(1, st.Coin, ctx, func() {})
				})
			}
		}
		for r := uint64(1); r <= rounds; r++ {
			for _, id := range live {
				st := c.stacks[id]
				c.inject(t, id, func(ctx sim.Context) { st.Coin.Start(ctx, r) })
			}
			c.mustReach(t, "coin round", func() bool {
				for _, id := range live {
					if !c.stacks[id].Coin.Done(r) {
						return false
					}
				}
				return true
			})
		}
		c.mustQuiesce(t)
		if c.shunned != 0 {
			t.Fatalf("%d shuns in crash-only run", c.shunned)
		}
		return c
	}

	pooled := run(map[sim.ProcID]bool{1: true, 2: true, 3: true})
	width := Config{N: n, Rounds: rounds}.Width()
	for _, id := range live {
		st := pooled.pools[id].Stats()
		if st.Refills != 1 || st.Reserved != 0 || st.Handouts == 0 || st.DoubleHandouts != 0 {
			t.Errorf("proc %d: gauges after two pooled rounds: %+v", id, st)
		}
		if st.Depth+st.Handouts != int64(len(live)*width) {
			t.Errorf("proc %d: depth %d + handouts %d != %d dealt slots",
				id, st.Depth, st.Handouts, len(live)*width)
		}
	}

	classic := run(nil)
	p, c := pooled.nw.Stats().Sent, classic.nw.Stats().Sent
	t.Logf("two coin rounds, process 4 crashed: pooled %d messages, classic %d", p, c)
	if p >= c {
		t.Errorf("pooled rounds sent %d messages, classic dealing %d: pooling should save traffic", p, c)
	}
}
