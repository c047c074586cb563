// Package svss implements Shunning Verifiable Secret Sharing — the
// paper's primary contribution (§4). The dealer of session (c, i) draws a
// random degree-t bivariate polynomial f(x, y) with f(0, 0) = s, hands
// every process j its row g_j(y) = f(j, y) and column h_j(x) = f(x, j),
// and then every pair of processes {j, l} cross-commits f(l, j) and
// f(j, l) through two MW-SVSS instances, one per ordered pair, in which
// one process deals and the other moderates. SVSS satisfies the full
// VSS properties (Validity, Binding, Hiding, Termination) except that,
// when the adversary breaks Validity or Binding, some nonfaulty process
// starts shunning a newly detected faulty process — which can happen at
// most t(n−t) times overall, the bound the Byzantine agreement layer
// relies on (§5).
//
// One MW-SVSS instance per ordered pair. The instance (d, m) that d
// deals and m moderates carries both of its values for a session of
// width k as one 2k-wide vector: batch slot 2s holds f^s(m, d) and 2s+1
// holds f^s(d, m). Interleaving lets a batch slot name its secret and
// half without the width, which a process that completed S without its
// own Deal does not know. ADH08's argument carries over:
//
//   - Hiding and binding hold per batch slot, as for any ShareVec: each
//     slot has its own polynomials, and R' reveals only the slots asked
//     for.
//   - A detection in either half shuns the same (dealer, moderator) pair:
//     the DMM expects values per (instance, batch slot), and shunning
//     counts processes, so t(n−t) still bounds it. Nothing beyond ADH08
//     is claimed: at n = 3t+1 asynchronous sharing cannot be error-free
//     and always terminate (Abraham–Dolev–Stern); SVSS trades each
//     broken validity or binding for a new shun.
//   - Reconstructing secret s reveals batch slots {2s, 2s+1} together,
//     what the two instances per ordered pair once revealed, slot s each.
package svss

import (
	"fmt"

	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/intern"
	"svssba/internal/mwsvss"
	"svssba/internal/poly"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// StepG is the broadcast step of the dealer's G announcement (share
// step 5).
const StepG uint8 = 1

// KindDeal is the payload kind of the dealer's row/column message.
const KindDeal = "svss/deal"

// Deal is share step 1: the dealer sends process j the evaluations
// g_j(1..t+1) and h_j(1..t+1) from which j reconstructs its row and
// column polynomials. A batched session concatenates the k slots'
// evaluations slot-major (k·(t+1) points per list); the receiver
// recovers k from the length, so a width-1 deal is byte-identical to
// the classic message.
type Deal struct {
	Session proto.SessionID
	RowPts  []field.Element
	ColPts  []field.Element
}

var _ proto.Marshaler = Deal{}
var _ dmm.Sessioned = Deal{}

// Kind implements sim.Payload.
func (Deal) Kind() string { return KindDeal }

// Size implements sim.Payload.
func (d Deal) Size() int { n, _ := d.PackSize(proto.MWID{}); return n }

// PackSize implements proto.MWIDLed.
func (d Deal) PackSize(base proto.MWID) (int, proto.MWID) {
	id := d.SessionRef()
	return id.PackSize(base) + proto.ElemsSize(len(d.RowPts)) + proto.ElemsSize(len(d.ColPts)), id
}

// SessionRef implements dmm.Sessioned.
func (d Deal) SessionRef() proto.MWID { return proto.MWID{Session: d.Session} }

// MarshalTo implements proto.Marshaler. The session is written as an
// MWID with a zero key (the MWID encoding spends nothing on zero
// fields).
func (d Deal) MarshalTo(w *proto.Writer) {
	d.SessionRef().MarshalTo(w)
	w.Elems(d.RowPts)
	w.Elems(d.ColPts)
}

// RegisterCodec registers SVSS message decoding.
func RegisterCodec(c *proto.Codec) {
	c.Register(KindDeal, func(r *proto.Reader) (sim.Payload, error) {
		var d Deal
		id := proto.ReadMWID(r)
		if !id.Key.IsZero() {
			return nil, fmt.Errorf("svss: deal with MW key %v", id.Key)
		}
		d.Session = id.Session
		d.RowPts = r.Elems()
		d.ColPts = r.Elems()
		return d, r.Err()
	})
}

// Output is the result of reconstruct protocol R: a field value or ⊥.
type Output struct {
	Value  field.Element
	Bottom bool
}

// String implements fmt.Stringer.
func (o Output) String() string {
	if o.Bottom {
		return "⊥"
	}
	return o.Value.String()
}

// Host is what the engine needs from its process.
type Host interface {
	Self() sim.ProcID
	Broadcast(ctx sim.Context, tag proto.Tag, value []byte)
	DMM() *dmm.DMM
}

// Callbacks notify the layer above (the common coin, tests, the public
// API) of session progress.
type Callbacks struct {
	// ShareComplete fires when protocol S completes locally (step 6),
	// once per session — the share phase covers every batch slot.
	ShareComplete func(ctx sim.Context, sid proto.SessionID)
	// ReconstructComplete fires when protocol R outputs locally (step 3)
	// for one batch slot (slot 0 for classic single-secret sessions).
	ReconstructComplete func(ctx sim.Context, sid proto.SessionID, slot int, out Output)
}

// MaxBatchSlots bounds a session's batch width: each secret takes two
// batch slots of the pair instances (see the package header).
const MaxBatchSlots = mwsvss.MaxBatchSlots / 2

// instance is the per-session state of one process.
//
// The per-sub-instance collections are dense: an MW key with canonical
// coordinates (dealer, moderator in 1..n) maps to a small index (keyIdx)
// into bitsets and slabs, so the per-completion bookkeeping and the
// allPairs scans that run on every advance do bit arithmetic instead of
// map operations. Every reader queries canonical keys only, so a
// completion for a key a Byzantine process minted outside those ranges
// is ignored at the door (OnMWShareComplete, OnMWReconComplete).
type instance struct {
	sid proto.SessionID
	ref proto.MWID // session-level reference (zero MW key)
	n   int        // system size (sizes the dense index space)
	k   int        // batch width; 0 until the session's geometry is known

	// Dealer state.
	gSub       []intern.ProcSet // G_j under construction (index j)
	dealing    bool
	gBroadcast bool

	// Participant state (per batch slot where vectorized).
	rowPolys []poly.Poly // g^s_j per slot
	colPolys []poly.Poly // h^s_j per slot
	polySet  bool
	joined   bool // initiated the pairwise MW instances

	mwDone intern.Bits // completed sub-shares by keyIdx

	gKnown    bool
	g         []sim.ProcID   // Ĝ
	gSets     [][]sim.ProcID // Ĝ_j for j ∈ Ĝ (index j)
	shareDone bool

	// Reconstruct state, per batch slot. Sub-outputs are stored per (MW
	// batch slot b, keyIdx): mwOut[b] is a keyIdx-indexed slab, the set
	// bits index b*kspan+keyIdx.
	reconWanted  intern.Bits // slots requested locally
	reconStarted intern.Bits // slots whose sub-reconstructions launched
	mwOut        [][]mwsvss.Output
	mwOutSet     intern.Bits
	reconDone    intern.Bits // slots output
}

// kspan is the dense keyIdx space size (the per-slot stride of the
// sub-output index).
func (in *instance) kspan() int { return (in.n + 1) * (in.n + 1) }

// canonical reports whether an MW key has canonical coordinates for
// system size n: dealer and moderator in 1..n.
func canonical(k proto.MWKey, n int) bool {
	d, m := int(k.Dealer), int(k.Moderator)
	return d >= 1 && d <= n && m >= 1 && m <= n
}

// keyIdx maps a canonical MW key to its dense index.
func (in *instance) keyIdx(k proto.MWKey) int {
	return int(k.Dealer)*(in.n+1) + int(k.Moderator)
}

// Batch slots of a secret inside its pair instances (see the package
// header): for the instance (d, m), colHalf carries f(m, d) and rowHalf
// carries f(d, m).
func colHalf(s int) int { return 2 * s }
func rowHalf(s int) int { return 2*s + 1 }

// shared reports whether the sub-share of a canonical key completed.
func (in *instance) shared(k proto.MWKey) bool { return in.mwDone.Has(in.keyIdx(k)) }

// putOut records a sub-reconstruction output of a canonical key for one
// MW batch slot in 0..mwsvss.MaxBatchSlots-1, reporting whether it is
// the first for (k, slot).
func (in *instance) putOut(k proto.MWKey, slot int, out mwsvss.Output) bool {
	i := in.keyIdx(k)
	if !in.mwOutSet.Add(slot*in.kspan() + i) {
		return false
	}
	for len(in.mwOut) <= slot {
		in.mwOut = append(in.mwOut, nil)
	}
	if in.mwOut[slot] == nil {
		in.mwOut[slot] = make([]mwsvss.Output, in.kspan())
	}
	in.mwOut[slot][i] = out
	return true
}

// hasOut reports whether a sub-reconstruction output is recorded for a
// canonical key and an MW batch slot.
func (in *instance) hasOut(k proto.MWKey, slot int) bool {
	return in.mwOutSet.Has(slot*in.kspan() + in.keyIdx(k))
}

// getOut returns the recorded sub-reconstruction output for a canonical
// key and an MW batch slot.
func (in *instance) getOut(k proto.MWKey, slot int) (mwsvss.Output, bool) {
	if !in.hasOut(k, slot) {
		return mwsvss.Output{}, false
	}
	return in.mwOut[slot][in.keyIdx(k)], true
}

// Engine runs all SVSS sessions of one process, driving a shared MW-SVSS
// engine for the pairwise sub-instances. Session ids are packed
// (proto.PackSession) and interned; the slab holds pointers because
// advance keeps an instance alive across broadcasts and MW calls that
// can re-enter the engine.
type Engine struct {
	host  Host
	mw    *mwsvss.Engine
	cb    Callbacks
	table intern.Table[proto.PackedSession]
	insts []*instance
	n     int
}

// New returns an SVSS engine using mw for its sub-instances. The caller
// must route MW-SVSS callbacks for non-KindMW sessions into
// OnMWShareComplete / OnMWReconComplete (core.AttachStack does this).
func New(host Host, mw *mwsvss.Engine, cb Callbacks) *Engine {
	return &Engine{host: host, mw: mw, cb: cb}
}

// inst returns the session instance, creating it on first use. It is
// nil when sid does not pack — a dealer id outside the wire's 16 bits
// names no session a peer could share, so its traffic is dropped.
func (e *Engine) inst(ctx sim.Context, sid proto.SessionID) *instance {
	k, ok := proto.PackSession(sid)
	if !ok {
		return nil
	}
	slot, fresh := e.table.Intern(k)
	if int(slot) >= len(e.insts) {
		e.insts = append(e.insts, nil)
	}
	if fresh {
		if e.n == 0 {
			e.n = ctx.N()
		}
		in := e.insts[slot]
		if in == nil {
			in = &instance{}
			e.insts[slot] = in
		}
		*in = instance{sid: sid, ref: proto.MWID{Session: sid}, n: e.n}
		e.host.DMM().BeginShare(in.ref)
	}
	return e.insts[slot]
}

// lookup returns the session instance, or nil.
func (e *Engine) lookup(sid proto.SessionID) *instance {
	k, ok := proto.PackSession(sid)
	if !ok {
		return nil
	}
	slot := e.table.Lookup(k)
	if slot == intern.NoID {
		return nil
	}
	return e.insts[slot]
}

// ShareDone reports whether S completed locally for sid.
func (e *Engine) ShareDone(sid proto.SessionID) bool {
	in := e.lookup(sid)
	return in != nil && in.shareDone
}

// ReconDone reports whether R completed locally for slot 0 of sid.
func (e *Engine) ReconDone(sid proto.SessionID) bool {
	return e.ReconDoneSlot(sid, 0)
}

// ReconDoneSlot reports whether R completed locally for one slot of sid.
func (e *Engine) ReconDoneSlot(sid proto.SessionID, slot int) bool {
	in := e.lookup(sid)
	return in != nil && in.reconDone.Has(slot)
}

// Width returns the batch width of sid (0 when unknown).
func (e *Engine) Width(sid proto.SessionID) int {
	in := e.lookup(sid)
	if in == nil {
		return 0
	}
	return in.k
}

// Live returns the number of live sessions (retirement tests).
func (e *Engine) Live() int { return e.table.Len() }

// SlabCap returns the session slab's high-water slot count.
func (e *Engine) SlabCap() int { return e.table.HighWater() }

// Created returns the cumulative number of SVSS sessions ever created.
func (e *Engine) Created() uint64 { return e.table.Created() }

// Reset releases every session and its interned id. The slab keeps its
// instance objects for reuse (freshly interned ids re-initialize them
// in place). Used when the owning stack retires.
func (e *Engine) Reset() {
	for _, in := range e.insts {
		if in != nil {
			*in = instance{}
		}
	}
	e.table.Reset()
}

// mwid builds a sub-instance id within a session.
func mwid(sid proto.SessionID, d, m sim.ProcID) proto.MWID {
	return proto.MWID{Session: sid, Key: proto.MWKey{Dealer: d, Moderator: m}}
}

// Share runs share step 1 for a new single-secret session: the calling
// process becomes the dealer of sid and shares secret.
func (e *Engine) Share(ctx sim.Context, sid proto.SessionID, secret field.Element) error {
	return e.ShareVec(ctx, sid, []field.Element{secret})
}

// ShareVec runs share step 1 for a batch of secrets: one bivariate
// polynomial per slot, one Deal message per peer carrying every slot's
// row/column points, and — through the MW layer's own batching — one
// quorum phase for the whole batch. Each slot later reconstructs
// independently via ReconstructSlot.
func (e *Engine) ShareVec(ctx sim.Context, sid proto.SessionID, secrets []field.Element) error {
	if sid.Dealer != e.host.Self() {
		return fmt.Errorf("svss: process %d is not dealer of %s", e.host.Self(), sid)
	}
	k := len(secrets)
	if k < 1 || k > MaxBatchSlots {
		return fmt.Errorf("svss: batch width %d out of range 1..%d", k, MaxBatchSlots)
	}
	in := e.inst(ctx, sid)
	if in == nil {
		return fmt.Errorf("svss: session %s has a dealer outside the wire domain", sid)
	}
	if in.dealing {
		return fmt.Errorf("svss: session %s already dealt", sid)
	}
	if in.k != 0 && in.k != k {
		return fmt.Errorf("svss: session %s already has width %d, not %d", sid, in.k, k)
	}
	in.dealing = true
	in.k = k

	t := ctx.T()
	fs := make([]poly.Bivariate, k)
	for s := 0; s < k; s++ {
		fs[s] = poly.NewRandomBivariate(ctx.Rand(), t, secrets[s])
	}
	for j := 1; j <= ctx.N(); j++ {
		rowPts := make([]field.Element, 0, k*(t+1))
		colPts := make([]field.Element, 0, k*(t+1))
		for s := 0; s < k; s++ {
			rowPts = append(rowPts, fs[s].Row(uint64(j)).EvalRange(t+1)...)
			colPts = append(colPts, fs[s].Col(uint64(j)).EvalRange(t+1)...)
		}
		ctx.Send(sim.ProcID(j), Deal{Session: sid, RowPts: rowPts, ColPts: colPts})
	}
	return nil
}

// Reconstruct begins protocol R for slot 0 of sid; if the share phase
// has not completed locally it starts as soon as it does.
func (e *Engine) Reconstruct(ctx sim.Context, sid proto.SessionID) {
	e.ReconstructSlot(ctx, sid, 0)
}

// ReconstructSlot begins protocol R for one batch slot of sid. Only
// that slot's sub-instances reveal; the batch's other secrets stay
// hidden.
func (e *Engine) ReconstructSlot(ctx sim.Context, sid proto.SessionID, slot int) {
	e.ReconstructSlots(ctx, sid, []int{slot})
}

// ReconstructSlots begins protocol R for a set of batch slots in one
// pass. Requesting them together lets the MW layer reveal them in one
// slab broadcast per sub-instance instead of one per slot.
func (e *Engine) ReconstructSlots(ctx sim.Context, sid proto.SessionID, slots []int) {
	in := e.inst(ctx, sid)
	if in == nil {
		return
	}
	pump := false
	for _, slot := range slots {
		if slot < 0 || slot >= MaxBatchSlots {
			continue
		}
		pump = true
		in.reconWanted.Add(slot)
	}
	if pump {
		e.advance(ctx, in)
	}
}

// OnMessage handles the dealer's Deal message (share step 2).
func (e *Engine) OnMessage(ctx sim.Context, m sim.Message) {
	d, ok := m.Payload.(Deal)
	if !ok {
		return
	}
	in := e.inst(ctx, d.Session)
	span := ctx.T() + 1
	if in == nil || m.From != d.Session.Dealer || in.polySet ||
		len(d.RowPts) == 0 || len(d.RowPts) != len(d.ColPts) ||
		len(d.RowPts)%span != 0 || len(d.RowPts)/span > MaxBatchSlots {
		return
	}
	k := len(d.RowPts) / span
	if in.k != 0 && in.k != k {
		return
	}
	rows := make([]poly.Poly, k)
	cols := make([]poly.Poly, k)
	for s := 0; s < k; s++ {
		row, err := poly.InterpolateFromShares(d.RowPts[s*span:(s+1)*span], ctx.T())
		if err != nil {
			return
		}
		col, err := poly.InterpolateFromShares(d.ColPts[s*span:(s+1)*span], ctx.T())
		if err != nil {
			return
		}
		rows[s], cols[s] = row, col
	}
	in.rowPolys, in.colPolys = rows, cols
	in.polySet = true
	in.k = k
	e.advance(ctx, in)
}

// OnBroadcast handles the dealer's G announcement (share step 5).
func (e *Engine) OnBroadcast(ctx sim.Context, origin sim.ProcID, t proto.Tag, value []byte) {
	if t.Step != StepG || origin != t.Session.Dealer {
		return
	}
	in := e.inst(ctx, t.Session)
	if in == nil || in.gKnown {
		return
	}
	g, gSets, ok := decodeGSets(value, ctx.N())
	if !ok {
		return
	}
	// A dealer announcing fewer than n−t members (of G or any G_j) is
	// provably faulty; ignore the announcement.
	if len(g) < ctx.N()-ctx.T() {
		return
	}
	for _, j := range g {
		if len(gSets[j]) < ctx.N()-ctx.T() {
			return
		}
	}
	in.g = g
	in.gSets = gSets
	in.gKnown = true
	e.advance(ctx, in)
}

// OnMWShareComplete receives sub-instance share completions. One for a
// non-canonical key is ignored: no step of S reads it.
func (e *Engine) OnMWShareComplete(ctx sim.Context, id proto.MWID) {
	if !canonical(id.Key, ctx.N()) {
		return
	}
	in := e.inst(ctx, id.Session)
	if in == nil {
		return
	}
	in.mwDone.Add(in.keyIdx(id.Key))

	// Share step 3 (dealer): the pair is done once its mirror instance
	// is too.
	d, m := id.Key.Dealer, id.Key.Moderator
	if in.dealing && d != m && in.shared(proto.MWKey{Dealer: m, Moderator: d}) {
		e.dealerPairDone(ctx, in, d, m)
	}
	e.advance(ctx, in)
}

// OnMWReconComplete receives sub-instance reconstruction outputs for
// one MW batch slot (one half of one secret). One for a non-canonical
// key or a slot outside 0..mwsvss.MaxBatchSlots-1 is ignored: no step
// of R reads it.
func (e *Engine) OnMWReconComplete(ctx sim.Context, id proto.MWID, slot int, out mwsvss.Output) {
	if !canonical(id.Key, ctx.N()) || slot < 0 || slot >= mwsvss.MaxBatchSlots {
		return
	}
	in := e.inst(ctx, id.Session)
	if in == nil || !in.putOut(id.Key, slot, out) {
		return
	}
	e.advance(ctx, in)
}

// dealerPairDone implements share steps 3-4: record mutual membership of
// the pair {a, b} and broadcast G once it reaches n−t.
func (e *Engine) dealerPairDone(ctx sim.Context, in *instance, a, b sim.ProcID) {
	add := func(j, l sim.ProcID) {
		if in.gSub == nil {
			in.gSub = make([]intern.ProcSet, in.n+1)
		}
		// j vouches for itself: the paper's termination argument needs
		// |G_j| ≥ n−t to be reachable with only n−t nonfaulty processes,
		// so G_j counts j (the self-invocations are vacuous).
		in.gSub[j].Add(j)
		in.gSub[j].Add(l)
	}
	add(a, b)
	add(b, a)

	if in.gBroadcast {
		return
	}
	nt := ctx.N() - ctx.T()
	var g []sim.ProcID
	for j := 1; j <= in.n && in.gSub != nil; j++ {
		if in.gSub[j].Count() >= nt {
			g = append(g, sim.ProcID(j))
		}
	}
	if len(g) < nt {
		return
	}
	in.gBroadcast = true
	gSets := make([][]sim.ProcID, in.n+1)
	for _, j := range g {
		gSets[j] = in.gSub[j].Slice()
	}
	tag := proto.Tag{Proto: proto.ProtoSVSS, Session: in.sid, Step: StepG}
	e.host.Broadcast(ctx, tag, encodeGSets(g, gSets))
}

// advance re-evaluates every enabled protocol step for the session.
func (e *Engine) advance(ctx sim.Context, in *instance) {
	self := e.host.Self()

	// Share step 2: once the row/column polynomials arrive, join the two
	// MW-SVSS instances per peer l — dealer of (j, l), moderator of
	// (l, j). Each carries both of the pair's values for the whole batch
	// as one vector, so the pairwise quorum machinery runs once per
	// ordered pair regardless of width.
	if in.polySet && !in.joined {
		in.joined = true
		dealt := make([]field.Element, 2*in.k)
		moderated := make([]field.Element, 2*in.k)
		for l := 1; l <= ctx.N(); l++ {
			peer := sim.ProcID(l)
			if peer == self {
				continue
			}
			lu := uint64(l)
			for s := 0; s < in.k; s++ {
				row, col := in.rowPolys[s].EvalUint(lu), in.colPolys[s].EvalUint(lu)
				// Dealer of (j, l): f^s(l, j) = h^s_j(l), f^s(j, l) = g^s_j(l).
				dealt[colHalf(s)], dealt[rowHalf(s)] = col, row
				// Moderator of (l, j): f^s(j, l) = g^s_j(l), f^s(l, j) = h^s_j(l).
				moderated[colHalf(s)], moderated[rowHalf(s)] = row, col
			}
			if err := e.mw.ShareVec(ctx, mwid(in.sid, self, peer), dealt); err != nil {
				continue
			}
			if err := e.mw.SetModeratorSecretVec(ctx, mwid(in.sid, peer, self), moderated); err != nil {
				continue
			}
		}
	}

	// Share step 6: complete S once Ĝ is known and both S' instances
	// completed for every j ∈ Ĝ, l ∈ Ĝ_j.
	if in.gKnown && !in.shareDone && in.allPairs(in.shared) {
		in.shareDone = true
		if e.cb.ShareComplete != nil {
			e.cb.ShareComplete(ctx, in.sid)
		}
	}

	// Reconstruct step 1: invoke R' for the two instances of every pair
	// (k ∈ Ĝ, l ∈ Ĝ_k), revealing the wanted secrets' batch slots only.
	// The slots that start together in one pass go to each sub-instance
	// as one grouped request, so the MW layer can coalesce their reveals.
	if in.shareDone {
		var started []int
		in.reconWanted.ForEach(func(s int) {
			if in.reconStarted.Has(s) {
				return
			}
			in.reconStarted.Add(s)
			started = append(started, colHalf(s), rowHalf(s))
		})
		if len(started) > 0 {
			var seen intern.Bits
			in.allPairs(func(k proto.MWKey) bool {
				if seen.Add(in.keyIdx(k)) {
					e.mw.ReconstructSlots(ctx, proto.MWID{Session: in.sid, Key: k}, started)
				}
				return true
			})
		}
	}

	// Reconstruct steps 2-3, per started slot: once every sub-output is
	// in, compute I, the row/column polynomials, and the final output.
	in.reconStarted.ForEach(func(s int) {
		both := func(k proto.MWKey) bool { return in.hasOut(k, colHalf(s)) && in.hasOut(k, rowHalf(s)) }
		if in.reconDone.Has(s) || !in.allPairs(both) {
			return
		}
		in.reconDone.Add(s)
		out := e.computeOutput(ctx, in, s)
		e.host.DMM().CompleteReconstruct(in.ref)
		if e.cb.ReconstructComplete != nil {
			e.cb.ReconstructComplete(ctx, in.sid, s, out)
		}
	})
}

// allPairs reports whether ok holds for both instances of every pair
// (k ∈ Ĝ, l ∈ Ĝ_k), stopping at the first that fails. Ĝ and every Ĝ_k
// decode-validated to 1..n, so the dense key index covers every key.
func (in *instance) allPairs(ok func(proto.MWKey) bool) bool {
	for _, k := range in.g {
		for _, l := range in.gSets[k] {
			if k != l && (!ok(proto.MWKey{Dealer: k, Moderator: l}) || !ok(proto.MWKey{Dealer: l, Moderator: k})) {
				return false
			}
		}
	}
	return true
}

// computeOutput implements reconstruct steps 2 and 3 for one batch slot.
func (e *Engine) computeOutput(ctx sim.Context, in *instance, slot int) Output {
	t := ctx.T()
	ignored := make(map[sim.ProcID]bool) // I_j

	gRow := make(map[sim.ProcID]poly.Poly) // g_k for k ∈ G \ I
	hCol := make(map[sim.ProcID]poly.Poly) // h_k for k ∈ G \ I

	for _, k := range in.g {
		// Gather the k-dealt outputs across l ∈ G_k:
		//   rowHalf of (d=k, m=l) holds r_kkl = f(k, l)  -> row points
		//   colHalf of (d=k, m=l) holds r_klk = f(l, k)  -> column points
		var rowPts, colPts []poly.Point
		bad := false
		for _, l := range in.gSets[k] {
			if l == k {
				continue
			}
			rkl, ok1 := in.getOut(proto.MWKey{Dealer: k, Moderator: l}, rowHalf(slot))
			rlk, ok0 := in.getOut(proto.MWKey{Dealer: k, Moderator: l}, colHalf(slot))
			if !ok1 || !ok0 || rkl.Bottom || rlk.Bottom {
				bad = true
				break
			}
			x := field.New(uint64(l))
			rowPts = append(rowPts, poly.Point{X: x, Y: rkl.Value})
			colPts = append(colPts, poly.Point{X: x, Y: rlk.Value})
		}
		if bad {
			ignored[k] = true
			continue
		}
		gk, okRow, err := poly.InterpolateDegree(rowPts, t)
		if err != nil || !okRow {
			ignored[k] = true
			continue
		}
		hk, okCol, err := poly.InterpolateDegree(colPts, t)
		if err != nil || !okCol {
			ignored[k] = true
			continue
		}
		gRow[k] = gk
		hCol[k] = hk
	}

	// Step 3: pairwise cross-consistency over G \ I.
	var rows []sim.ProcID
	for _, k := range in.g {
		if !ignored[k] {
			rows = append(rows, k)
		}
	}
	for _, k := range rows {
		for _, l := range rows {
			if hCol[k].EvalUint(uint64(l)) != gRow[l].EvalUint(uint64(k)) {
				return Output{Bottom: true}
			}
		}
	}
	if len(rows) < t+1 {
		return Output{Bottom: true}
	}
	xs := make([]field.Element, t+1)
	rowPolys := make([]poly.Poly, t+1)
	for i := 0; i <= t; i++ {
		xs[i] = field.New(uint64(rows[i]))
		rowPolys[i] = gRow[rows[i]]
	}
	f, err := poly.BivariateFromRows(xs, rowPolys, t)
	if err != nil {
		return Output{Bottom: true}
	}
	// Uniqueness check: every remaining row and column must lie on f.
	for _, k := range rows {
		if !f.Row(uint64(k)).Equal(gRow[k]) || !f.Col(uint64(k)).Equal(hCol[k]) {
			return Output{Bottom: true}
		}
	}
	return Output{Value: f.Secret()}
}

// encodeGSets canonically encodes (G, {G_j}): the set G followed by
// each member's set G_j, members ascending (the order G decodes in), so
// g must be ascending. gSets is indexed by process id.
func encodeGSets(g []sim.ProcID, gSets [][]sim.ProcID) []byte {
	var w proto.Writer
	w.Procs(g)
	for _, j := range g {
		w.Procs(gSets[j])
	}
	return w.Bytes()
}

// decodeGSets decodes and validates a G announcement; the returned
// gSets slice is indexed by process id (members of G only).
func decodeGSets(b []byte, n int) ([]sim.ProcID, [][]sim.ProcID, bool) {
	r := proto.GetReader(b)
	defer proto.PutReader(r)
	g := r.Procs()
	if r.Err() != nil || !proto.ValidProcs(g, n) {
		return nil, nil, false
	}
	gSets := make([][]sim.ProcID, n+1)
	for _, j := range g {
		members := r.Procs()
		if r.Err() != nil || !proto.ValidProcs(members, n) {
			return nil, nil, false
		}
		gSets[j] = members
	}
	if r.Close() != nil {
		return nil, nil, false
	}
	return g, gSets, true
}
