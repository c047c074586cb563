package rb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// Digest echoes: a ProtoBundle body of at least 32 bytes crosses each
// link in its type 1 only, its type 2 and type 3 carry SHA-256(body),
// and the body reaches processes the origin skipped by pull — and by
// push, where the consumer pushes.

var bundleTag = proto.Tag{Proto: proto.ProtoBundle, A: 5}

// body returns a distinct bundle-sized body.
func body(fill byte) []byte { return bytes.Repeat([]byte{fill}, 200) }

// digestCase runs one digest-path scenario under one scheduler.
type digestCase struct {
	n, t   int
	seed   int64
	fifo   bool
	push   bool // the accept handler pushes, as acs does; else it does not, as core
	origin sim.ProcID
	// faulty builds the handler of a faulty process from an honest
	// engine whose accepts are recorded (a nil builder: the process runs
	// that engine honestly, as the origin's accomplice).
	faulty map[sim.ProcID]func(id sim.ProcID, eng *Engine) sim.Handler
	// start runs in the origin's Init (the origin's engine may be used).
	start func(ctx sim.Context, eng *Engine)
}

type digestRun struct {
	accepted map[sim.ProcID][][]byte
	honest   []sim.ProcID
	maxCands int          // most candidates any instance held
	echoLens map[int]bool // value lengths of the echoes honest processes sent
}

func (c digestCase) run(t *testing.T) *digestRun {
	t.Helper()
	var opts []sim.NetworkOption
	if c.fifo {
		opts = append(opts, sim.WithScheduler(sim.NewFIFOScheduler()))
	}
	nw := sim.NewNetwork(c.n, c.t, c.seed, opts...)
	r := &digestRun{accepted: make(map[sim.ProcID][][]byte), echoLens: make(map[int]bool)}
	for p := 1; p <= c.n; p++ {
		id := sim.ProcID(p)
		var eng *Engine
		eng = New(id, func(ctx sim.Context, a Accept) {
			r.accepted[id] = append(r.accepted[id], a.Value)
			if c.push {
				eng.Push(ctx, a.Origin, a.Tag)
			}
		})
		var init func(sim.Context)
		if id == c.origin {
			init = func(ctx sim.Context) { c.start(ctx, eng) }
		}
		mk, bad := c.faulty[id]
		if !bad {
			r.honest = append(r.honest, id)
		}
		deliver := func(ctx sim.Context, m sim.Message) {
			eng.Handle(recordCtx{ctx, r}, m)
			for i := range eng.insts {
				if slot := eng.insts[i].held; slot != 0 {
					h := &eng.helds[slot-1]
					seen := make(map[sim.ProcID]bool)
					for _, cd := range h.cands {
						if seen[cd.from] {
							t.Errorf("process %d holds two candidates from %d", id, cd.from)
						}
						seen[cd.from] = true
					}
					r.maxCands = max(r.maxCands, len(h.cands))
				}
			}
		}
		var h sim.Handler = testutil.NewNode(id, init, deliver)
		if bad && mk != nil {
			h = mk(id, eng)
		}
		if err := nw.Register(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	return r
}

// recordCtx notes the value lengths of the echoes a process sends.
type recordCtx struct {
	sim.Context
	r *digestRun
}

func (c recordCtx) Send(to sim.ProcID, p sim.Payload) {
	switch m := p.(type) {
	case WeakMsg:
		if m.Phase == Type2 {
			c.r.echoLens[len(m.Value)] = true
		}
	case Msg:
		c.r.echoLens[len(m.Value)] = true
	}
	c.Context.Send(to, p)
}

// agreed checks RB's properties over the honest processes: nobody
// accepts twice, at most one value is accepted, and either every honest
// process accepts or none does. It returns the accepted value.
func (r *digestRun) agreed(t *testing.T, label string) []byte {
	t.Helper()
	var got []byte
	accepters := 0
	for _, id := range r.honest {
		vs := r.accepted[id]
		if len(vs) > 1 {
			t.Fatalf("%s: process %d accepted %d times", label, id, len(vs))
		}
		if len(vs) == 0 {
			continue
		}
		accepters++
		if got != nil && !bytes.Equal(got, vs[0]) {
			t.Fatalf("%s: honest processes accepted different bodies", label)
		}
		got = vs[0]
	}
	if accepters != 0 && accepters != len(r.honest) {
		t.Fatalf("%s: %d of %d honest processes accepted (totality)", label, accepters, len(r.honest))
	}
	return got
}

// forEachSchedule runs fn for n = 4 and n = 7, the random and FIFO
// schedulers, a consumer that pushes at delivery (acs) and one that
// never pushes (core), and 20 seeds each.
func forEachSchedule(t *testing.T, fn func(t *testing.T, label string, n, tf int, seed int64, fifo, push bool)) {
	for _, n := range []int{4, 7} {
		tf := (n - 1) / 3
		for _, fifo := range []bool{false, true} {
			for _, push := range []bool{false, true} {
				for seed := int64(0); seed < 20; seed++ {
					fn(t, fmt.Sprintf("n%d fifo=%v push=%v seed %d", n, fifo, push, seed), n, tf, seed, fifo, push)
				}
			}
		}
	}
}

// sendType1 sends the origin's type 1 carrying b to each listed process.
func sendType1(ctx sim.Context, origin sim.ProcID, b []byte, to []sim.ProcID) {
	for _, p := range to {
		ctx.Send(p, WeakMsg{Origin: origin, Tag: bundleTag, Phase: Type1, Value: b})
	}
}

func procs(from, to int) []sim.ProcID {
	var out []sim.ProcID
	for p := from; p <= to; p++ {
		out = append(out, sim.ProcID(p))
	}
	return out
}

// TestDigestHonestOriginEchoesDigests: an honest origin's bundle is
// accepted everywhere, and every echo carries a 32-byte digest.
func TestDigestHonestOriginEchoesDigests(t *testing.T) {
	forEachSchedule(t, func(t *testing.T, label string, n, tf int, seed int64, fifo, push bool) {
		r := digestCase{n: n, t: tf, seed: seed, fifo: fifo, push: push, origin: 1,
			start: func(ctx sim.Context, eng *Engine) { eng.Broadcast(ctx, bundleTag, body('v')) },
		}.run(t)
		if got := r.agreed(t, label); !bytes.Equal(got, body('v')) {
			t.Fatalf("%s: accepted %q", label, got)
		}
		if len(r.echoLens) != 1 || !r.echoLens[sha256.Size] {
			t.Fatalf("%s: echo value lengths %v, want only %d", label, r.echoLens, sha256.Size)
		}
	})
}

// TestDigestBodyToTPlus1Honest: the origin gives its body to exactly
// t+1 honest processes (and its t−1 accomplices), then runs honestly.
// The processes it skipped get the body by pull (and by push, where the
// consumer pushes), so every honest process accepts it.
func TestDigestBodyToTPlus1Honest(t *testing.T) {
	forEachSchedule(t, func(t *testing.T, label string, n, tf int, seed int64, fifo, push bool) {
		// Faulty: the origin n and its accomplices n−1 .. n−t+1, all
		// running honest engines. Honest holders: 1 .. t+1.
		faulty := make(map[sim.ProcID]func(sim.ProcID, *Engine) sim.Handler)
		for p := n - tf + 1; p <= n; p++ {
			faulty[sim.ProcID(p)] = nil
		}
		origin := sim.ProcID(n)
		to := append(procs(1, tf+1), procs(n-tf+1, n)...)
		r := digestCase{n: n, t: tf, seed: seed, fifo: fifo, push: push, origin: origin, faulty: faulty,
			start: func(ctx sim.Context, _ *Engine) { sendType1(ctx, origin, body('v'), to) },
		}.run(t)
		if got := r.agreed(t, label); !bytes.Equal(got, body('v')) {
			t.Fatalf("%s: accepted %d bytes, want the body", label, len(got))
		}
	})
}

// TestDigestTwoBodiesTwoHalves: the origin sends one body to half the
// processes and another to the rest, and echoes both digests. At most
// one digest is accepted, every honest accepter holds the same body,
// and totality holds.
func TestDigestTwoBodiesTwoHalves(t *testing.T) {
	forEachSchedule(t, func(t *testing.T, label string, n, tf int, seed int64, fifo, push bool) {
		origin := sim.ProcID(n)
		faulty := map[sim.ProcID]func(sim.ProcID, *Engine) sim.Handler{
			origin: func(id sim.ProcID, _ *Engine) sim.Handler {
				return testutil.NewNode(id, func(ctx sim.Context) {
					a, b := body('a'), body('b')
					sendType1(ctx, origin, a, procs(1, n/2))
					sendType1(ctx, origin, b, procs(n/2+1, n))
					for _, v := range [][]byte{a, b} {
						sum := sha256.Sum256(v)
						for p := 1; p <= n; p++ {
							ctx.Send(sim.ProcID(p), WeakMsg{Origin: origin, Tag: bundleTag, Phase: Type2, Value: sum[:]})
							ctx.Send(sim.ProcID(p), Msg{Origin: origin, Tag: bundleTag, Value: sum[:]})
						}
					}
				}, nil)
			},
		}
		r := digestCase{n: n, t: tf, seed: seed, fifo: fifo, push: push, origin: 0, faulty: faulty}.run(t)
		if got := r.agreed(t, label); got != nil && !bytes.Equal(got, body('a')) && !bytes.Equal(got, body('b')) {
			t.Fatalf("%s: accepted a body nobody sent", label)
		}
	})
}

// TestDigestMuteEchoer: one process sends no type 2 at all. The honest
// origin's body is still accepted everywhere else.
func TestDigestMuteEchoer(t *testing.T) {
	forEachSchedule(t, func(t *testing.T, label string, n, tf int, seed int64, fifo, push bool) {
		faulty := map[sim.ProcID]func(sim.ProcID, *Engine) sim.Handler{
			2: func(id sim.ProcID, eng *Engine) sim.Handler {
				return testutil.NewNode(id, nil, func(ctx sim.Context, m sim.Message) {
					eng.Handle(muteCtx{ctx}, m)
				})
			},
		}
		r := digestCase{n: n, t: tf, seed: seed, fifo: fifo, push: push, origin: 1, faulty: faulty,
			start: func(ctx sim.Context, eng *Engine) { eng.Broadcast(ctx, bundleTag, body('v')) },
		}.run(t)
		if got := r.agreed(t, label); !bytes.Equal(got, body('v')) {
			t.Fatalf("%s: accepted %d bytes, want the body", label, len(got))
		}
	})
}

// muteCtx drops every WRB type 2 its process sends.
type muteCtx struct{ sim.Context }

func (c muteCtx) Send(to sim.ProcID, p sim.Payload) {
	if m, ok := p.(WeakMsg); ok && m.Phase == Type2 {
		return
	}
	c.Context.Send(to, p)
}

// TestDigestWrongPushFirst: a faulty process pushes three wrong bodies
// for an honest origin's instance before anything else is sent. The
// right body is still accepted everywhere, and no process ever holds
// more than one candidate per sender (checked after every delivery).
func TestDigestWrongPushFirst(t *testing.T) {
	forEachSchedule(t, func(t *testing.T, label string, n, tf int, seed int64, fifo, push bool) {
		pusher := sim.ProcID(n)
		faulty := map[sim.ProcID]func(sim.ProcID, *Engine) sim.Handler{
			pusher: func(id sim.ProcID, eng *Engine) sim.Handler {
				return testutil.NewNode(id, func(ctx sim.Context) {
					for _, fill := range []byte{'x', 'y', 'z'} {
						sendType1(ctx, 1, body(fill), procs(1, n))
					}
				}, func(ctx sim.Context, m sim.Message) { eng.Handle(ctx, m) })
			},
		}
		origin := func(ctx sim.Context, eng *Engine) { eng.Broadcast(ctx, bundleTag, body('v')) }
		// The origin broadcasts on its first delivery, so under FIFO the
		// wrong pushes are queued ahead of its type 1.
		r := digestCase{n: n, t: tf, seed: seed, fifo: fifo, push: push, origin: 0, faulty: faulty}
		r.faulty[1] = func(id sim.ProcID, eng *Engine) sim.Handler {
			started := false
			return testutil.NewNode(id, nil, func(ctx sim.Context, m sim.Message) {
				if !started {
					started = true
					origin(ctx, eng)
				}
				eng.Handle(ctx, m)
			})
		}
		run := r.run(t)
		run.honest = append(run.honest, 1) // the origin is honest, only late
		if got := run.agreed(t, label); !bytes.Equal(got, body('v')) {
			t.Fatalf("%s: accepted %d bytes, want the body", label, len(got))
		}
		if run.maxCands > n {
			t.Fatalf("%s: %d candidates held for one instance", label, run.maxCands)
		}
	})
}

// TestUnitPushNeverEchoes: a bundle body arriving from anyone but its
// origin is a push — it never makes the receiver echo — and a second
// push from the same sender is not kept.
func TestUnitPushNeverEchoes(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	for _, fill := range []byte{'x', 'y'} {
		e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: body(fill)}})
	}
	if len(ctx.Sent) != 0 {
		t.Fatalf("a push produced %d sends", len(ctx.Sent))
	}
	k, _ := proto.PackTag(3, bundleTag)
	slot := e.insts[e.table.Lookup(k)].held
	if slot == 0 {
		t.Fatal("no held state after the pushes")
	}
	if h := &e.helds[slot-1]; len(h.cands) != 1 || !bytes.Equal(h.cands[0].body, body('x')) {
		t.Fatalf("held candidates %+v, want the first push only", h)
	}
	// The origin's own type 1 is echoed, as its digest.
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: body('v')}})
	sum := sha256.Sum256(body('v'))
	if sent := ctx.Drain(); len(sent) != 4 || !bytes.Equal(sent[0].Payload.(WeakMsg).Value, sum[:]) {
		t.Fatalf("origin's type 1 produced %v, want 4 digest echoes", sent)
	}
}

// TestUnitShortBodyEchoesInline: a bundle body under 32 bytes is echoed
// as itself, exactly as a non-bundle value; from 32 bytes on the echo
// is the digest.
func TestUnitShortBodyEchoesInline(t *testing.T) {
	for _, size := range []int{0, 1, sha256.Size - 1, sha256.Size, sha256.Size + 1} {
		ctx := testutil.NewCtx(1, 4, 1)
		var accepts []Accept
		e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
		b := bytes.Repeat([]byte{'s'}, size)
		e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: b}})
		sent := ctx.Drain()
		if len(sent) != 4 {
			t.Fatalf("size %d: %d echoes, want 4", size, len(sent))
		}
		echo := sent[0].Payload.(WeakMsg).Value
		want := b
		if size >= sha256.Size {
			sum := sha256.Sum256(b)
			want = sum[:]
		}
		if !bytes.Equal(echo, want) {
			t.Fatalf("size %d: echoed %x, want %x", size, echo, want)
		}
		// n−t type 3 for the echo value accept the body.
		for _, from := range []sim.ProcID{2, 3, 4} {
			e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: bundleTag, Value: echo}})
		}
		if len(accepts) != 1 || !bytes.Equal(accepts[0].Value, b) {
			t.Fatalf("size %d: accepts %v, want the body once", size, accepts)
		}
	}
}

// TestUnitDigestWaitsForBody: n−t type 3 for a digest do not accept
// until a body hashing to it arrives; a served one then accepts. The
// process sent no type 2, so it keeps the body it delivered as a holder
// until each other peer but the origin echoed the digest or was served.
func TestUnitDigestWaitsForBody(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	var accepts []Accept
	e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
	sum := sha256.Sum256(body('v'))
	for _, from := range []sim.ProcID{2, 3, 4} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: bundleTag, Value: sum[:]}})
	}
	if len(accepts) != 0 {
		t.Fatal("accepted a digest without its body")
	}
	ctx.Drain()
	e.Handle(ctx, sim.Message{From: 4, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: body('w')}})
	e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: body('v')}})
	if len(accepts) != 1 || !bytes.Equal(accepts[0].Value, body('v')) {
		t.Fatalf("accepts %v, want the served body once", accepts)
	}
	if len(ctx.Sent) != 0 {
		t.Fatalf("%d sends after a served accept, want 0", len(ctx.Sent))
	}
	k, _ := proto.PackTag(3, bundleTag)
	slot := e.insts[e.table.Lookup(k)].held
	if slot == 0 || !bytes.Equal(e.helds[slot-1].own, body('v')) || len(e.helds[slot-1].cands) != 0 {
		t.Fatal("the delivering process does not hold the delivered body alone")
	}
	// Process 2 pulls it and is served; process 4's type 2 covers it.
	e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: Pull{Origin: 3, Tag: bundleTag}})
	if sent := ctx.Drain(); len(sent) != 1 || sent[0].To != 2 || !bytes.Equal(sent[0].Payload.(WeakMsg).Value, body('v')) {
		t.Fatalf("the pull produced %v, want the body to 2", sent)
	}
	if e.Held() != 1 {
		t.Fatalf("%d held before process 4 is covered, want 1", e.Held())
	}
	e.Handle(ctx, sim.Message{From: 4, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type2, Value: sum[:]}})
	if slot := e.insts[e.table.Lookup(k)].held; slot != 0 || e.Held() != 0 {
		t.Fatalf("held state survived the last peer's cover: slot %d, %d held", slot, e.Held())
	}
	if len(e.freeHelds) != 1 || !reflect.DeepEqual(e.helds[0], held{cands: e.helds[0].cands, echoes: e.helds[0].echoes}) ||
		len(e.helds[0].cands) != 0 {
		t.Fatalf("the released instance's held slot was not emptied and freed: %+v, free %v", e.helds, e.freeHelds)
	}
	// A delivered instance still echoes its origin's late type 1, so its
	// peers can reach their own type-2 quorum; it holds nothing for it.
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: body('v')}})
	if sent := ctx.Drain(); len(sent) != 4 || !bytes.Equal(sent[0].Payload.(WeakMsg).Value, sum[:]) {
		t.Fatalf("late type 1 at a delivered instance produced %v, want 4 digest echoes", sent)
	}
	if slot := e.insts[e.table.Lookup(k)].held; slot != 0 {
		t.Fatal("the late type 1 took a held slot")
	}
}

// TestUnitHolderPushesToUncounted: a process that echoed the digest
// pushes the body when its consumer asks, after accepting, to exactly
// the peers whose type 2 for that digest it did not count — not to
// itself, the origin, or a peer that echoed it — and only once.
func TestUnitHolderPushesToUncounted(t *testing.T) {
	ctx := testutil.NewCtx(1, 7, 2)
	e := New(1, nil)
	b := body('v')
	sum := sha256.Sum256(b)
	other := sha256.Sum256(body('w'))
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: b}})
	// Type 2 for the digest from 2 and 4; 5 echoed another digest.
	for _, v := range []struct {
		from sim.ProcID
		sum  []byte
	}{{2, sum[:]}, {4, sum[:]}, {5, other[:]}} {
		e.Handle(ctx, sim.Message{From: v.from, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type2, Value: v.sum}})
	}
	ctx.Drain()
	for _, from := range []sim.ProcID{2, 3, 4, 5, 6} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: bundleTag, Value: sum[:]}})
	}
	for _, m := range ctx.Drain() {
		if w, ok := m.Payload.(WeakMsg); ok && w.Phase == Type1 {
			t.Fatal("pushed before the consumer asked")
		}
	}
	if n := e.Push(ctx, 3, bundleTag); n != 3 {
		t.Fatalf("Push sent %d, want 3", n)
	}
	if n := e.Push(ctx, 3, bundleTag); n != 0 {
		t.Fatalf("a second Push sent %d, want 0", n)
	}
	var pushed []sim.ProcID
	for _, m := range ctx.Sent {
		if w, ok := m.Payload.(WeakMsg); ok && w.Phase == Type1 {
			if !bytes.Equal(w.Value, b) {
				t.Fatal("pushed a different body")
			}
			pushed = append(pushed, m.To)
		}
	}
	if fmt.Sprint(pushed) != "[5 6 7]" {
		t.Fatalf("pushed to %v, want [5 6 7]", pushed)
	}
}

// TestUnitOriginNeverPushes: an origin accepting its own broadcast
// pushes nothing, though it echoed the digest and saw no type 2 from
// most peers: its type 1 already carried the body to every peer.
func TestUnitOriginNeverPushes(t *testing.T) {
	ctx := testutil.NewCtx(1, 7, 2)
	e := New(1, nil)
	b := body('v')
	sum := sha256.Sum256(b)
	e.Handle(ctx, sim.Message{From: 1, To: 1, Payload: WeakMsg{Origin: 1, Tag: bundleTag, Phase: Type1, Value: b}})
	e.Handle(ctx, sim.Message{From: 2, To: 1, Payload: WeakMsg{Origin: 1, Tag: bundleTag, Phase: Type2, Value: sum[:]}})
	ctx.Drain()
	for _, from := range []sim.ProcID{2, 3, 4, 5, 6} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 1, Tag: bundleTag, Value: sum[:]}})
	}
	if n := e.Push(ctx, 1, bundleTag); n != 0 {
		t.Fatalf("the origin's Push sent %d, want 0", n)
	}
	for _, m := range ctx.Sent {
		if w, ok := m.Payload.(WeakMsg); ok && w.Phase == Type1 {
			t.Fatalf("the origin pushed its body to %d", m.To)
		}
	}
}

// TestUnitDroppedCountsUndeliveredBodies: Dropped counts every body a
// type 1 brought in less the one delivered — parked and refused pushes,
// and a push arriving after the delivery — here under a proposal tag,
// which is echoed by digest like a bundle.
func TestUnitDroppedCountsUndeliveredBodies(t *testing.T) {
	tag := proto.Tag{Proto: proto.ProtoACS, A: 5}
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	type1 := func(from sim.ProcID, b []byte) {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: WeakMsg{Origin: 3, Tag: tag, Phase: Type1, Value: b}})
	}
	check := func(when string, want int) {
		t.Helper()
		if got := e.Dropped(); got != want {
			t.Fatalf("%s: Dropped() = %d, want %d", when, got, want)
		}
	}
	type1(2, body('x'))
	type1(2, body('y'))
	check("a parked and a refused push", 2)
	type1(3, body('v'))
	check("and the origin's body", 3)
	sum := sha256.Sum256(body('v'))
	for _, from := range []sim.ProcID{2, 3, 4} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: tag, Value: sum[:]}})
	}
	check("after the origin's body delivered", 2)
	type1(4, body('v'))
	check("after a late push", 3)
	e.Reset()
	check("after Reset", 3)
}

// pullsIn returns the destinations of the pulls in sent, in order.
func pullsIn(sent []sim.Message) []sim.ProcID {
	var to []sim.ProcID
	for _, m := range sent {
		if _, ok := m.Payload.(Pull); ok {
			to = append(to, m.To)
		}
	}
	return to
}

// TestUnitLaggardPullsTPlus1: a process whose type-3 quorum settles on
// a digest it holds no body for pulls the peers whose type 2 carried
// that digest — not itself, not the origin — in id order. A peer whose
// type 2 arrives later is asked then, until t+1 were asked. Two of
// them (t) stay mute; the third serves, and the body is delivered.
func TestUnitLaggardPullsTPlus1(t *testing.T) {
	ctx := testutil.NewCtx(1, 7, 2)
	var accepts []Accept
	e := New(1, func(_ sim.Context, a Accept) { accepts = append(accepts, a) })
	b := body('v')
	sum := sha256.Sum256(b)
	other := sha256.Sum256(body('w'))
	type2 := func(from sim.ProcID, v []byte) {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type2, Value: v}})
	}
	for _, from := range []sim.ProcID{1, 3, 4, 2} {
		type2(from, sum[:])
	}
	type2(5, other[:])
	if len(ctx.Sent) != 0 {
		t.Fatalf("%d sends before the type-3 quorum", len(ctx.Sent))
	}
	for from := sim.ProcID(2); from <= 6; from++ {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Msg{Origin: 3, Tag: bundleTag, Value: sum[:]}})
	}
	if got := pullsIn(ctx.Drain()); fmt.Sprint(got) != "[2 4]" {
		t.Fatalf("pulled %v at the quorum, want [2 4]", got)
	}
	for _, from := range []sim.ProcID{6, 7, 2} {
		type2(from, sum[:])
	}
	if got := pullsIn(ctx.Drain()); fmt.Sprint(got) != "[6]" || e.Pulls() != 3 {
		t.Fatalf("later type 2s pulled %v (%d in all), want [6] and 3", got, e.Pulls())
	}
	if len(accepts) != 0 {
		t.Fatal("accepted before any body arrived")
	}
	// 2 and 4 stay mute; 6 serves.
	e.Handle(ctx, sim.Message{From: 6, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: body('v')}})
	if len(accepts) != 1 || !bytes.Equal(accepts[0].Value, b) {
		t.Fatalf("accepts %v, want the served body once", accepts)
	}
	if got := pullsIn(ctx.Drain()); len(got) != 0 {
		t.Fatalf("pulled %v after delivering", got)
	}
}

// TestUnitServedOncePerRequester: a holder serves each requester at
// most once per instance, whatever digest the requester echoed — a
// repeated pull, or one from a peer that echoed an equivocating
// origin's other digest, gets nothing more — and never serves itself
// or the origin.
func TestUnitServedOncePerRequester(t *testing.T) {
	ctx := testutil.NewCtx(1, 7, 2)
	e := New(1, nil)
	b := body('v')
	other := sha256.Sum256(body('w'))
	e.Handle(ctx, sim.Message{From: 3, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: b}})
	e.Handle(ctx, sim.Message{From: 6, To: 1, Payload: WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type2, Value: other[:]}})
	ctx.Drain()
	for _, from := range []sim.ProcID{5, 5, 6, 6, 1, 3, 5} {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Pull{Origin: 3, Tag: bundleTag}})
	}
	var to []sim.ProcID
	for _, m := range ctx.Drain() {
		if w, ok := m.Payload.(WeakMsg); !ok || w.Phase != Type1 || !bytes.Equal(w.Value, b) {
			t.Fatalf("a pull produced %+v, want the body", m.Payload)
		}
		to = append(to, m.To)
	}
	if fmt.Sprint(to) != "[5 6]" || e.Served() != 2 {
		t.Fatalf("served %v (%d counted), want [5 6]", to, e.Served())
	}
	if want := int64(2 * (WeakMsg{Origin: 3, Tag: bundleTag, Phase: Type1, Value: b}).Size()); e.ServedBytes() != want {
		t.Fatalf("ServedBytes %d, want %d", e.ServedBytes(), want)
	}
	// A pull for an instance this process never saw creates nothing.
	live := e.Live()
	e.Handle(ctx, sim.Message{From: 5, To: 1, Payload: Pull{Origin: 4, Tag: bundleTag}})
	if len(ctx.Sent) != 0 || e.Live() != live {
		t.Fatalf("a pull for an unknown instance sent %d and left %d live, want 0 and %d", len(ctx.Sent), e.Live(), live)
	}
}

// TestUnitOriginNeverServes: the origin holds its own body but answers
// no pull: its type 1 already reached every peer.
func TestUnitOriginNeverServes(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	e := New(1, nil)
	e.Broadcast(ctx, bundleTag, body('v'))
	for _, m := range ctx.Drain() {
		if m.To == 1 {
			e.Handle(ctx, sim.Message{From: 1, To: 1, Payload: m.Payload})
		}
	}
	ctx.Drain()
	for from := sim.ProcID(2); from <= 4; from++ {
		e.Handle(ctx, sim.Message{From: from, To: 1, Payload: Pull{Origin: 1, Tag: bundleTag}})
	}
	if len(ctx.Sent) != 0 || e.Served() != 0 {
		t.Fatalf("the origin answered pulls with %v", ctx.Sent)
	}
}
