package svss_test

import (
	"fmt"
	"math/rand"
	"testing"

	"svssba/internal/adversary"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/poly"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

func sid(dealer sim.ProcID) proto.SessionID {
	return proto.SessionID{Dealer: dealer, Kind: proto.KindApp, Round: 1}
}

type proc struct {
	id        sim.ProcID
	stack     *core.Stack
	shareDone map[proto.SessionID]bool
	outputs   map[proto.SessionID]svss.Output // the latest slot output
	slotOuts  map[proto.SessionID]map[int]svss.Output
	shunned   []sim.ProcID
}

type cluster struct {
	nw    *sim.Network
	procs map[sim.ProcID]*proc
}

func newCluster(t *testing.T, n, tf int, seed int64, opts ...sim.NetworkOption) *cluster {
	t.Helper()
	c := &cluster{
		nw:    sim.NewNetwork(n, tf, seed, opts...),
		procs: make(map[sim.ProcID]*proc, n),
	}
	for i := 1; i <= n; i++ {
		p := &proc{
			id:        sim.ProcID(i),
			shareDone: make(map[proto.SessionID]bool),
			outputs:   make(map[proto.SessionID]svss.Output),
			slotOuts:  make(map[proto.SessionID]map[int]svss.Output),
		}
		p.stack = core.NewStack(p.id, func(j sim.ProcID, _ proto.MWID) {
			p.shunned = append(p.shunned, j)
		})
		p.stack.ConsumeSVSS(proto.KindApp, core.SVSSConsumer{
			ShareComplete: func(_ sim.Context, s proto.SessionID) { p.shareDone[s] = true },
			ReconComplete: func(_ sim.Context, s proto.SessionID, slot int, out svss.Output) {
				p.outputs[s] = out
				if p.slotOuts[s] == nil {
					p.slotOuts[s] = make(map[int]svss.Output)
				}
				p.slotOuts[s][slot] = out
			},
		})
		c.procs[p.id] = p
		if err := c.nw.Register(p.stack.Node); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	return c
}

func (c *cluster) startShare(t *testing.T, s proto.SessionID, secret field.Element) {
	t.Helper()
	dealer := c.procs[s.Dealer]
	dealer.stack.Node.AddInit(func(ctx sim.Context) {
		if err := dealer.stack.SVSS.Share(ctx, s, secret); err != nil {
			t.Errorf("share: %v", err)
		}
	})
}

func (c *cluster) allShareDone(s proto.SessionID, who []sim.ProcID) bool {
	for _, i := range who {
		if !c.procs[i].shareDone[s] {
			return false
		}
	}
	return true
}

func (c *cluster) allReconDone(s proto.SessionID, who []sim.ProcID) bool {
	for _, i := range who {
		if _, ok := c.procs[i].outputs[s]; !ok {
			return false
		}
	}
	return true
}

func (c *cluster) reconstructAll(t *testing.T, s proto.SessionID, who []sim.ProcID) {
	t.Helper()
	for _, i := range who {
		p := c.procs[i]
		if err := c.nw.Inject(i, func(ctx sim.Context) {
			p.stack.SVSS.Reconstruct(ctx, s)
		}); err != nil {
			t.Fatalf("inject reconstruct %d: %v", i, err)
		}
	}
}

// mustReach runs the network until cond holds, failing the test if the
// network quiesces or hits the step limit first.
func (c *cluster) mustReach(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if _, err := c.nw.RunUntil(cond, 50_000_000); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !cond() {
		t.Fatalf("%s: network quiesced before condition held", what)
	}
}

func ids(from, to int) []sim.ProcID {
	out := make([]sim.ProcID, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, sim.ProcID(i))
	}
	return out
}

func TestHonestShareReconstruct(t *testing.T) {
	for _, cfg := range []struct {
		n, t  int
		seeds int
	}{{4, 1, 4}, {7, 2, 1}} {
		t.Run(fmt.Sprintf("n%d_t%d", cfg.n, cfg.t), func(t *testing.T) {
			for seed := int64(0); seed < int64(cfg.seeds); seed++ {
				c := newCluster(t, cfg.n, cfg.t, seed)
				s := sid(1)
				secret := field.New(777)
				c.startShare(t, s, secret)
				all := ids(1, cfg.n)
				c.mustReach(t, "share", func() bool { return c.allShareDone(s, all) })
				c.reconstructAll(t, s, all)
				c.mustReach(t, "reconstruct", func() bool { return c.allReconDone(s, all) })
				for _, i := range all {
					out := c.procs[i].outputs[s]
					if out.Bottom || out.Value != secret {
						t.Errorf("seed %d: process %d output %v, want %v", seed, i, out, secret)
					}
					if len(c.procs[i].shunned) != 0 {
						t.Errorf("seed %d: process %d shunned %v in honest run", seed, i, c.procs[i].shunned)
					}
				}
			}
		})
	}
}

func TestValidityOfTerminationWithSilentFaults(t *testing.T) {
	// With t silent processes, the honest dealer's session must still
	// complete for all live processes (Validity of Termination).
	c := newCluster(t, 4, 1, 2)
	c.nw.Crash(4)
	s := sid(1)
	secret := field.New(5)
	c.startShare(t, s, secret)
	live := ids(1, 3)
	c.mustReach(t, "share", func() bool { return c.allShareDone(s, live) })
	c.reconstructAll(t, s, live)
	c.mustReach(t, "reconstruct", func() bool { return c.allReconDone(s, live) })
	for _, i := range live {
		if out := c.procs[i].outputs[s]; out.Bottom || out.Value != secret {
			t.Errorf("process %d output %v, want %v", i, out, secret)
		}
	}
}

func TestNonDealerShareRejected(t *testing.T) {
	c := newCluster(t, 4, 1, 3)
	if err := c.nw.Inject(2, func(ctx sim.Context) {
		if err := c.procs[2].stack.SVSS.Share(ctx, sid(1), field.New(1)); err == nil {
			t.Error("non-dealer share accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleShareRejected(t *testing.T) {
	c := newCluster(t, 4, 1, 4)
	if err := c.nw.Inject(1, func(ctx sim.Context) {
		if err := c.procs[1].stack.SVSS.Share(ctx, sid(1), field.New(1)); err != nil {
			t.Errorf("first share: %v", err)
		}
		if err := c.procs[1].stack.SVSS.Share(ctx, sid(1), field.New(2)); err == nil {
			t.Error("second share accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestValidityUnderReconstructLiar: the dealer is honest; process 4
// corrupts every share of its MW reconstruct-phase reveals
// (adversary.RValLiar). The SVSS Validity property requires every
// completed slot output to equal its secret, or a shun. At width 3 the
// dealer shares a batch with ShareVec and every process reconstructs all
// slots in one pass, so the liar lies on multi-slot slabs.
func TestValidityUnderReconstructLiar(t *testing.T) {
	for _, width := range []int{1, 3} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			const seeds = 15
			secrets := make([]field.Element, width)
			slots := make([]int, width)
			for i := range secrets {
				secrets[i] = field.New(uint64(31337 + i))
				slots[i] = i
			}
			detected, wrongWithShun := 0, 0
			for seed := int64(0); seed < seeds; seed++ {
				c := newCluster(t, 4, 1, seed)
				s := sid(1)
				adversary.Apply(c.procs[4].stack, adversary.RValLiar(1))
				dealer := c.procs[1]
				dealer.stack.Node.AddInit(func(ctx sim.Context) {
					if err := dealer.stack.SVSS.ShareVec(ctx, s, secrets); err != nil {
						t.Errorf("share: %v", err)
					}
				})
				honest := ids(1, 3)
				c.mustReach(t, "share", func() bool { return c.allShareDone(s, honest) })
				for _, i := range ids(1, 4) {
					p := c.procs[i]
					if err := c.nw.Inject(i, func(ctx sim.Context) {
						p.stack.SVSS.ReconstructSlots(ctx, s, slots)
					}); err != nil {
						t.Fatalf("inject reconstruct %d: %v", i, err)
					}
				}
				allSlots := func() bool {
					for _, i := range honest {
						if len(c.procs[i].slotOuts[s]) < width {
							return false
						}
					}
					return true
				}
				c.mustReach(t, "reconstruct", allSlots)
				if _, err := c.nw.Run(50_000_000); err != nil {
					t.Fatalf("seed %d: drain: %v", seed, err)
				}
				shuns := 0
				for _, i := range honest {
					for _, j := range c.procs[i].shunned {
						if j != 4 {
							t.Fatalf("seed %d: honest %d shunned honest %d", seed, i, j)
						}
						shuns++
					}
				}
				if shuns > 0 {
					detected++
				}
				for _, i := range honest {
					for slot, want := range secrets {
						out := c.procs[i].slotOuts[s][slot]
						if out.Bottom || out.Value != want {
							if shuns == 0 {
								t.Fatalf("seed %d: process %d slot %d output %v (want %v) without shun", seed, i, slot, out, want)
							}
							wrongWithShun++
						}
					}
				}
			}
			if detected == 0 {
				t.Error("liar never detected across seeds (expected at least once)")
			}
			t.Logf("liar detected in %d/%d runs; wrong slot outputs covered by shun: %d", detected, seeds, wrongWithShun)
		})
	}
}

// TestPairHalvesCheckedAlone: each ordered pair shares both of its
// values in one MW-SVSS instance, f^s(m, d) in batch slot 2s and
// f^s(d, m) in batch slot 2s+1. Process 4 reveals honestly except on one
// half of every slab it broadcasts, through an mwsvss.MapSlab callback
// that keys on the slot; the third case lies on both halves, as
// adversary.RValLiar does. A lie on either half alone must be caught
// like a lie on the whole slab: in every seed 4 is shunned, no honest
// process is, and the shun pairs stay within t(n−t). SVSS binds only up
// to a shun, so honest outputs may differ (or miss the secret) in a
// seed where 4 was caught, and the test requires no more than that; the
// whole-slab liar splits the honest outputs in the same way.
func TestPairHalvesCheckedAlone(t *testing.T) {
	const n, tf, width, seeds = 4, 1, 2, 8
	secrets := []field.Element{field.New(505), field.New(606)}
	slots := []int{0, 1}
	for _, half := range []struct {
		name string
		lies func(slot int) bool
	}{
		{"f(m,d) half", func(slot int) bool { return slot%2 == 0 }},
		{"f(d,m) half", func(slot int) bool { return slot%2 == 1 }},
		{"both halves", func(int) bool { return true }},
	} {
		t.Run(half.name, func(t *testing.T) {
			split := 0
			for seed := int64(0); seed < seeds; seed++ {
				c := newCluster(t, n, tf, seed)
				s := sid(1)
				c.procs[4].stack.Node.SetBcastTamper(func(_ sim.Context, tag proto.Tag, v []byte) ([]byte, bool) {
					if tag.Proto != proto.ProtoMW || tag.Step != mwsvss.StepRValSlab {
						return v, true
					}
					out, _ := mwsvss.MapSlab(v, func(slot int, _ sim.ProcID, e field.Element) field.Element {
						if half.lies(slot) {
							return e.Add(field.One)
						}
						return e
					})
					return out, true
				})
				dealer := c.procs[1]
				dealer.stack.Node.AddInit(func(ctx sim.Context) {
					if err := dealer.stack.SVSS.ShareVec(ctx, s, secrets); err != nil {
						t.Errorf("share: %v", err)
					}
				})
				honest := ids(1, 3)
				c.mustReach(t, "share", func() bool { return c.allShareDone(s, honest) })
				for _, i := range ids(1, n) {
					p := c.procs[i]
					if err := c.nw.Inject(i, func(ctx sim.Context) {
						p.stack.SVSS.ReconstructSlots(ctx, s, slots)
					}); err != nil {
						t.Fatalf("inject reconstruct %d: %v", i, err)
					}
				}
				c.mustReach(t, "reconstruct", func() bool {
					for _, i := range honest {
						if len(c.procs[i].slotOuts[s]) < width {
							return false
						}
					}
					return true
				})
				if _, err := c.nw.Run(50_000_000); err != nil {
					t.Fatalf("seed %d: drain: %v", seed, err)
				}
				pairs := make(map[[2]sim.ProcID]bool)
				for _, i := range honest {
					for _, j := range c.procs[i].shunned {
						if j != 4 {
							t.Fatalf("seed %d: honest %d shunned honest %d", seed, i, j)
						}
						pairs[[2]sim.ProcID{i, j}] = true
					}
				}
				if len(pairs) == 0 {
					t.Errorf("seed %d: the liar was not shunned", seed)
				}
				if len(pairs) > tf*(n-tf) {
					t.Errorf("seed %d: %d shun pairs, over t(n−t) = %d", seed, len(pairs), tf*(n-tf))
				}
				agreed := true
				for slot, want := range secrets {
					for _, i := range honest {
						out := c.procs[i].slotOuts[s][slot]
						if out.Bottom || out.Value != want {
							agreed = false
						}
					}
				}
				if !agreed {
					split++
				}
			}
			t.Logf("honest outputs missed a secret in %d/%d seeds, which SVSS allows once the liar is shunned", split, seeds)
		})
	}
}

// TestBatchWidthCap: each secret takes two batch slots of the pair
// instances, so a session is at most svss.MaxBatchSlots =
// mwsvss.MaxBatchSlots/2 secrets wide. ShareVec refuses a wider batch,
// and a Deal one secret wider is ignored, while one at the cap installs
// the session's width.
func TestBatchWidthCap(t *testing.T) {
	if svss.MaxBatchSlots != mwsvss.MaxBatchSlots/2 {
		t.Fatalf("MaxBatchSlots %d, want %d", svss.MaxBatchSlots, mwsvss.MaxBatchSlots/2)
	}
	c := newCluster(t, 4, 1, 6)
	deal := func(s proto.SessionID, k int) svss.Deal {
		pts := make([]field.Element, 2*k) // k·(t+1) points, t = 1
		for i := range pts {
			pts[i] = field.New(uint64(i + 1))
		}
		return svss.Deal{Session: s, RowPts: pts, ColPts: pts}
	}
	wide, capped := sid(1), proto.SessionID{Dealer: 1, Kind: proto.KindApp, Round: 2}
	e := c.procs[2].stack.SVSS
	if err := c.nw.Inject(2, func(ctx sim.Context) {
		e.OnMessage(ctx, sim.Message{From: 1, To: 2, Payload: deal(wide, svss.MaxBatchSlots+1)})
		e.OnMessage(ctx, sim.Message{From: 1, To: 2, Payload: deal(capped, svss.MaxBatchSlots)})
	}); err != nil {
		t.Fatal(err)
	}
	if w := e.Width(wide); w != 0 {
		t.Errorf("a deal %d secrets wide installed width %d", svss.MaxBatchSlots+1, w)
	}
	if w := e.Width(capped); w != svss.MaxBatchSlots {
		t.Errorf("a deal at the cap installed width %d, want %d", w, svss.MaxBatchSlots)
	}
	if err := c.nw.Inject(1, func(ctx sim.Context) {
		err := c.procs[1].stack.SVSS.ShareVec(ctx, sid(1), make([]field.Element, svss.MaxBatchSlots+1))
		if err == nil {
			t.Errorf("ShareVec accepted %d secrets", svss.MaxBatchSlots+1)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHidingMaskingPolynomial verifies the information-theoretic core of
// the Hiding property: the joint view of any t processes (their rows and
// columns) is consistent with every possible secret, because for any
// faulty set F with |F| = t and any delta there is a masking bivariate
// polynomial Z with Z(0,0) = delta that vanishes on all rows and columns
// indexed by F.
func TestHidingMaskingPolynomial(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const tf = 2
	faulty := []uint64{3, 5}
	f := poly.NewRandomBivariate(r, tf, field.New(42))

	// Z(x,y) = delta * prod_{j in F}(x-j)(y-j) / prod_j (j^2) ... build by
	// scaling the product polynomial so Z(0,0) = delta.
	delta := field.New(1000)
	zx := poly.FromCoefficients([]field.Element{field.One})
	for _, j := range faulty {
		// multiply zx by (x - j)
		coef := make([]field.Element, len(zx.Coef)+1)
		for i, c := range zx.Coef {
			coef[i] = coef[i].Sub(c.Mul(field.New(j)))
			coef[i+1] = coef[i+1].Add(c)
		}
		zx = poly.FromCoefficients(coef)
	}
	z00 := zx.EvalUint(0).Mul(zx.EvalUint(0))
	scale := delta.Div(z00)

	g := poly.Bivariate{T: tf, Coef: make([][]field.Element, tf+1)}
	for i := range g.Coef {
		g.Coef[i] = make([]field.Element, tf+1)
		for j := range g.Coef[i] {
			var zi, zj field.Element
			if i < len(zx.Coef) {
				zi = zx.Coef[i]
			}
			if j < len(zx.Coef) {
				zj = zx.Coef[j]
			}
			g.Coef[i][j] = f.Coef[i][j].Add(zi.Mul(zj).Mul(scale))
		}
	}

	if g.Secret() != f.Secret().Add(delta) {
		t.Fatalf("masked secret = %v, want %v", g.Secret(), f.Secret().Add(delta))
	}
	// The faulty processes' views (rows and columns at F) are identical.
	for _, j := range faulty {
		if !f.Row(j).Equal(g.Row(j)) || !f.Col(j).Equal(g.Col(j)) {
			t.Fatalf("view of faulty process %d differs between maskings", j)
		}
	}
}

// TestTerminationOnceOneCompletes: once one honest process completes S,
// every honest process eventually completes S (Termination).
func TestTerminationOnceOneCompletes(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := newCluster(t, 4, 1, seed)
		s := sid(2)
		c.startShare(t, s, field.New(8))
		all := ids(1, 4)
		one := func() bool {
			for _, i := range all {
				if c.procs[i].shareDone[s] {
					return true
				}
			}
			return false
		}
		c.mustReach(t, "first completion", one)
		c.mustReach(t, "all completions", func() bool { return c.allShareDone(s, all) })
	}
}

func TestDealCodecRoundTrip(t *testing.T) {
	c := proto.NewCodec()
	svss.RegisterCodec(c)
	in := svss.Deal{
		Session: sid(3),
		RowPts:  []field.Element{field.New(1), field.New(2)},
		ColPts:  []field.Element{field.New(3), field.New(4)},
	}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// kind code, session (mask, dealer, kind, round), then two
	// u16-counted element lists.
	if want := 1 + 4 + 2*(2+2*8); len(b) != want || in.Size()+1 != want {
		t.Errorf("encoded %d bytes, Size()+code %d, want %d", len(b), in.Size()+1, want)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := out.(svss.Deal)
	if !ok || got.Session != in.Session || len(got.RowPts) != 2 || got.ColPts[1] != field.New(4) {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

// TestNonCanonicalCompletionsIgnored: sub-instance completions for MW
// keys outside the canonical ranges (a process id outside 1..n) or for
// an MW batch slot outside 0..mwsvss.MaxBatchSlots-1 change
// nothing. A run that feeds them to every process before the share and
// again before the reconstruction ends with the same outputs, the same
// share completions and the same traffic as the run that does not, and
// the session they name that nobody shares is never created.
func TestNonCanonicalCompletionsIgnored(t *testing.T) {
	const n = 4
	s, ghost := sid(1), sid(3)
	secret := field.New(31)
	canon := proto.MWKey{Dealer: 1, Moderator: 2}
	bogus := []proto.MWKey{
		{Dealer: 0, Moderator: 2},
		{Dealer: 2, Moderator: n + 1},
		{Dealer: n + 1, Moderator: 1},
		{Dealer: 300, Moderator: 400},
	}
	lie := mwsvss.Output{Value: field.New(99)}
	feed := func(ctx sim.Context, e *svss.Engine) {
		for _, session := range []proto.SessionID{s, ghost} {
			for _, k := range bogus {
				id := proto.MWID{Session: session, Key: k}
				e.OnMWShareComplete(ctx, id)
				e.OnMWReconComplete(ctx, id, 0, lie)
			}
			for _, slot := range []int{-1, mwsvss.MaxBatchSlots} {
				e.OnMWReconComplete(ctx, proto.MWID{Session: session, Key: canon}, slot, lie)
			}
		}
	}
	type outcome struct {
		outputs     [n + 1]svss.Output
		shared      [n + 1]bool
		live        [n + 1]int
		sent, bytes int64
		shuns       int
	}
	run := func(fed bool) outcome {
		c := newCluster(t, n, 1, 5)
		all := ids(1, n)
		// Both runs make the same calls into the network, so they draw
		// the same schedule; only the fed run passes the completions on.
		maybeFeed := func(i sim.ProcID) func(sim.Context) {
			e := c.procs[i].stack.SVSS
			return func(ctx sim.Context) {
				if fed {
					feed(ctx, e)
				}
			}
		}
		for _, i := range all {
			c.procs[i].stack.Node.AddInit(maybeFeed(i))
		}
		c.startShare(t, s, secret)
		c.mustReach(t, "share", func() bool { return c.allShareDone(s, all) })
		for _, i := range all {
			if err := c.nw.Inject(i, maybeFeed(i)); err != nil {
				t.Fatal(err)
			}
		}
		c.reconstructAll(t, s, all)
		c.mustReach(t, "reconstruct", func() bool { return c.allReconDone(s, all) })
		if _, err := c.nw.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for _, i := range all {
			p := c.procs[i]
			o.outputs[i], o.shared[i], o.live[i] = p.outputs[s], p.shareDone[s], p.stack.SVSS.Live()
			o.shuns += len(p.shunned)
		}
		st := c.nw.Stats()
		o.sent, o.bytes = st.Sent, st.TotalBytes()
		return o
	}
	want, got := run(false), run(true)
	if got != want {
		t.Errorf("non-canonical completions changed the run:\n got  %+v\n want %+v", got, want)
	}
	for i := 1; i <= n; i++ {
		if out := got.outputs[i]; out.Bottom || out.Value != secret {
			t.Errorf("process %d output %v, want %v", i, out, secret)
		}
		if got.live[i] != 1 {
			t.Errorf("process %d holds %d sessions, want 1", i, got.live[i])
		}
	}
}
