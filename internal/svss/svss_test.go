package svss_test

import (
	"fmt"
	"math/rand"
	"testing"

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
	outputs   map[proto.SessionID]svss.Output
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
		}
		p.stack = core.NewStack(p.id, func(j sim.ProcID, _ proto.MWID) {
			p.shunned = append(p.shunned, j)
		})
		p.stack.ConsumeSVSS(proto.KindApp, core.SVSSConsumer{
			ShareComplete: func(_ sim.Context, s proto.SessionID) { p.shareDone[s] = true },
			ReconComplete: func(_ sim.Context, s proto.SessionID, _ int, out svss.Output) { p.outputs[s] = out },
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

// TestBindingUnderReconstructLiars: the dealer is honest; the faulty
// process corrupts its MW reconstruct-phase broadcasts. The SVSS Validity
// property requires every completed output to equal s, or a shun.
func TestValidityUnderReconstructLiar(t *testing.T) {
	detected, wrongWithShun := 0, 0
	for seed := int64(0); seed < 15; seed++ {
		c := newCluster(t, 4, 1, seed)
		s := sid(1)
		secret := field.New(31337)
		c.procs[4].stack.Node.SetBcastTamper(func(_ sim.Context, tag proto.Tag, value []byte) ([]byte, bool) {
			if tag.Proto == proto.ProtoMW && tag.Step == 5 {
				// Corrupt only within SVSS sessions (all of them here).
				if v, ok := mwsvss.DecodeElem(value); ok {
					return mwsvss.EncodeElem(v.Add(field.One)), true
				}
			}
			return value, true
		})
		c.startShare(t, s, secret)
		honest := ids(1, 3)
		c.mustReach(t, "share", func() bool { return c.allShareDone(s, honest) })
		c.reconstructAll(t, s, ids(1, 4))
		c.mustReach(t, "reconstruct", func() bool { return c.allReconDone(s, honest) })
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
			out := c.procs[i].outputs[s]
			if out.Bottom || out.Value != secret {
				if shuns == 0 {
					t.Fatalf("seed %d: process %d output %v (want %v) without shun", seed, i, out, secret)
				}
				wrongWithShun++
			}
		}
	}
	if detected == 0 {
		t.Error("liar never detected across seeds (expected at least once)")
	}
	t.Logf("liar detected in %d/15 runs; wrong outputs covered by shun: %d", detected, wrongWithShun)
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
// keys outside the canonical ranges (a process id outside 1..n, an MW
// slot above 1) or for a batch slot outside 0..MaxBatchSlots-1 change
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
		{Dealer: 1, Moderator: 2, Slot: 2},
		{Dealer: 300, Moderator: 400, Slot: 9},
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
