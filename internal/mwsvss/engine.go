package mwsvss

import (
	"fmt"
	"sort"

	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/intern"
	"svssba/internal/poly"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Host is what the engine needs from its process: identity, reliable
// broadcast, and the DMM layer. internal/core.Node implements it.
type Host interface {
	Self() sim.ProcID
	Broadcast(ctx sim.Context, tag proto.Tag, value []byte)
	DMM() *dmm.DMM
}

// Output is the result of reconstruct protocol R': a field value or ⊥.
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

// Callbacks notify the layer above (SVSS, tests) of instance progress.
type Callbacks struct {
	// ShareComplete fires when S' step 9 completes locally (once per
	// instance, covering every batch slot at once — the share phase is
	// shared across the batch).
	ShareComplete func(ctx sim.Context, id proto.MWID)
	// ReconstructComplete fires when R' step 4 outputs locally for one
	// batch slot (slot 0 for classic single-secret instances).
	ReconstructComplete func(ctx sim.Context, id proto.MWID, slot int, out Output)
}

// MaxBatchSlots bounds the batch width one instance will track. The
// honest maximum is the pool's dealing width (rounds × n per ABA times
// n ABAs); the bound exists so a Byzantine reveal naming a huge slot
// cannot make us allocate per-slot reconstruct state for slots no dealer
// ever dealt.
const MaxBatchSlots = 1024

// rval is a buffered entry of an accepted reveal: origin claims its share
// of f^slot_target is val.
type rval struct {
	origin sim.ProcID
	target sim.ProcID
	slot   int
	val    field.Element
}

// instance holds the per-instance state of one process.
//
// One instance carries a batch of k independent secrets: every secret
// has its own polynomials and values, but the quorum machinery of S'
// (echo/ack flow, L/M/OK sets) runs ONCE for the whole batch — a
// confirmer only enters L_j when its echo vector matches on every slot,
// so the n+2n² message storm of setup is paid once per batch instead of
// once per secret. Reconstruction stays per slot: each slot's values
// are revealed and interpolated independently, so handing out one slot
// never leaks the others.
//
// Per-process collections are dense: sets of processes are bitsets and
// per-process values live in []T slices indexed by process id (1..n,
// slot 0 unused), allocated lazily on first use and released as the
// protocol steps that feed them close. Per-slot value vectors are flat
// slot-major slices ([s*n + l-1]).
type instance struct {
	id proto.MWID
	k  int // batch width; 0 until the dealer's geometry is known

	// Dealer-only state (step 1).
	dealerPolys []poly.Poly // slot-major: f^s_l at [s*n + l-1]
	isDealing   bool

	mod *modState // moderator-only state; nil until first used

	// Share-phase participant state (steps 2-4, 8-9).
	vals      []field.Element // slot-major: f̂^j_l at [s*n + l-1]
	valsSet   bool
	myPolys   []poly.Poly // f̂^s_j per slot
	myPolySet bool
	sentStep2 bool
	echoVals  [][]field.Element // echo vector from l (index l; nil until first echo)
	echoSeen  intern.ProcSet    // first echo per l only
	ackFrom   intern.ProcSet    // RB-accepted acks
	dealSet   intern.ProcSet    // live L_j (step 3)
	lSnapshot []sim.ProcID      // broadcast L_j (step 4)
	lDone     bool
	lSets     [][]sim.ProcID // accepted L̂_l per origin l (index l)
	lKnown    intern.ProcSet // origins with an accepted L̂
	mSet      []sim.ProcID   // accepted M̂
	mKnown    bool
	dealerOK  bool // dealer broadcast its OK (step 7)
	okKnown   bool // OK accepted (step 9)
	shareDone bool
	dropDone  bool // step 8 executed

	rc     *reconState // reconstruct state; nil until a slot is wanted or revealed
	mSwept bool        // step 4 ran its one-time full sweep at M̂ arrival
}

// modState is the moderator's state of one instance (steps 5-6). Only
// one process in n moderates an instance, so the others never allocate
// it.
type modState struct {
	modSecrets []field.Element // s'^s per slot (nil until set)
	modFs      []poly.Poly     // f^s per slot
	modFSet    bool
	modVals    [][]field.Element // f̂^j_0 vector from j (index j; nil until first value)
	modValSeen intern.ProcSet
	modM       intern.ProcSet // M being built
	mBroadcast bool
}

// reconState is the reconstruct state of one instance (R' steps 1-4),
// per slot. The per-target collections are flat slices indexed
// [slot*(n+1) + target], grown on demand to the highest slot in play.
// An instance whose slots are never asked for or revealed keeps none,
// and every read of an absent reconState sees empty sets.
type reconState struct {
	reconWanted  intern.Bits      // slots requested locally
	reconStarted intern.Bits      // slots whose reveal pass ran
	rvalsPending []rval           // accepted but not yet qualified
	revealedBy   []intern.ProcSet // origins whose row of a slot arrived (index slot)
	kSets        [][]poly.Point
	fBar         []poly.Poly
	fBarSet      intern.Bits // index slot*(n+1)+target
	reconDone    intern.Bits // slots output
	startQueue   []int       // slots wanted but not yet revealed (drained by R' step 1)
}

// moderator returns the instance's moderator state, allocating it.
func (in *instance) moderator() *modState {
	if in.mod == nil {
		in.mod = &modState{}
	}
	return in.mod
}

// recon returns the instance's reconstruct state, allocating it.
func (in *instance) recon() *reconState {
	if in.rc == nil {
		in.rc = &reconState{}
	}
	return in.rc
}

// reconDone reports whether slot s was output.
func (in *instance) reconDone(s int) bool { return in.rc != nil && in.rc.reconDone.Has(s) }

// Engine runs all MW-SVSS instances of one process. Instance ids are
// packed (proto.PackMWID) and interned to dense ids; the slab holds
// pointers (not values) because advance keeps an instance alive across
// broadcasts and callbacks that can re-enter the engine and grow the
// slab.
type Engine struct {
	host  Host
	cb    Callbacks
	table intern.Table[proto.PackedMWID]
	insts []*instance
	n     int // system size, captured from the first ctx
}

// New returns an MW-SVSS engine for the host process.
func New(host Host, cb Callbacks) *Engine {
	return &Engine{host: host, cb: cb}
}

// inst returns the instance for id, creating it on first use. It is nil
// when id does not pack — a process id outside the wire's 16 bits names
// no instance a peer could share, so its traffic is dropped.
func (e *Engine) inst(ctx sim.Context, id proto.MWID) *instance {
	k, ok := proto.PackMWID(id)
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
		*in = instance{id: id}
		e.host.DMM().BeginShare(id)
	}
	return e.insts[slot]
}

// lookup returns the instance for id, or nil.
func (e *Engine) lookup(id proto.MWID) *instance {
	k, ok := proto.PackMWID(id)
	if !ok {
		return nil
	}
	slot := e.table.Lookup(k)
	if slot == intern.NoID {
		return nil
	}
	return e.insts[slot]
}

// Instance reports whether the engine has state for id (for tests).
func (e *Engine) Instance(id proto.MWID) bool { return e.lookup(id) != nil }

// ShareDone reports whether S' completed locally for id.
func (e *Engine) ShareDone(id proto.MWID) bool {
	in := e.lookup(id)
	return in != nil && in.shareDone
}

// ReconDone reports whether R' completed locally for slot 0 of id.
func (e *Engine) ReconDone(id proto.MWID) bool { return e.ReconDoneSlot(id, 0) }

// ReconDoneSlot reports whether R' completed locally for one slot of id.
func (e *Engine) ReconDoneSlot(id proto.MWID, slot int) bool {
	in := e.lookup(id)
	return in != nil && in.reconDone(slot)
}

// Width returns the batch width of id (0 when unknown).
func (e *Engine) Width(id proto.MWID) int {
	in := e.lookup(id)
	if in == nil {
		return 0
	}
	return in.k
}

// Live returns the number of live instances (retirement tests).
func (e *Engine) Live() int { return e.table.Len() }

// SlabCap returns the instance slab's high-water slot count.
func (e *Engine) SlabCap() int { return e.table.HighWater() }

// Created returns the cumulative number of MW-SVSS instances ever created.
func (e *Engine) Created() uint64 { return e.table.Created() }

// Reset releases every instance and its interned id. The slab keeps
// its instance objects for reuse (freshly interned ids re-initialize
// them in place), so a reset-and-refill cycle allocates nothing. Used
// when the owning stack retires and by benchmarks.
func (e *Engine) Reset() {
	for _, in := range e.insts {
		if in != nil {
			*in = instance{}
		}
	}
	e.table.Reset()
}

// tag builds an MW-SVSS broadcast tag for this instance.
func tag(id proto.MWID, step uint8, a uint32) proto.Tag {
	return proto.Tag{Proto: proto.ProtoMW, Session: id.Session, MW: id.Key, Step: step, A: a}
}

// setWidth installs the dealer-declared batch width; a dealer that
// equivocates on the width across its messages gets the later ones
// dropped (its instance wedges, which only hurts the dealer).
func (in *instance) setWidth(k int) bool {
	if k < 1 || k > MaxBatchSlots {
		return false
	}
	if in.k == 0 {
		in.k = k
	}
	return in.k == k
}

// Share runs share step 1 for a single secret (batch width 1).
func (e *Engine) Share(ctx sim.Context, id proto.MWID, secret field.Element) error {
	return e.ShareVec(ctx, id, []field.Element{secret})
}

// ShareVec runs share step 1 for a batch of secrets: the calling process
// must be the instance dealer; per slot it draws f^s, f^s_1..f^s_n and
// distributes the share vectors. One quorum phase then covers the whole
// batch.
func (e *Engine) ShareVec(ctx sim.Context, id proto.MWID, secrets []field.Element) error {
	if id.Key.Dealer != e.host.Self() {
		return fmt.Errorf("mwsvss: process %d is not dealer of %s", e.host.Self(), id)
	}
	k := len(secrets)
	if k < 1 || k > MaxBatchSlots {
		return fmt.Errorf("mwsvss: batch width %d out of range 1..%d", k, MaxBatchSlots)
	}
	in := e.inst(ctx, id)
	if in == nil {
		return fmt.Errorf("mwsvss: instance %s has a process id outside the wire domain", id)
	}
	if in.isDealing {
		return fmt.Errorf("mwsvss: instance %s already dealt", id)
	}
	if !in.setWidth(k) {
		return fmt.Errorf("mwsvss: instance %s already has width %d, not %d", id, in.k, k)
	}
	in.isDealing = true

	n, t := ctx.N(), ctx.T()
	rng := ctx.Rand()
	fs := make([]poly.Poly, k)
	in.dealerPolys = make([]poly.Poly, k*n)
	for s := 0; s < k; s++ {
		fs[s] = poly.NewRandom(rng, t, secrets[s])
		for l := 1; l <= n; l++ {
			in.dealerPolys[s*n+l-1] = poly.NewRandom(rng, t, fs[s].EvalUint(uint64(l)))
		}
	}
	for j := 1; j <= n; j++ {
		vals := make([]field.Element, k*n)
		for s := 0; s < k; s++ {
			for l := 1; l <= n; l++ {
				vals[s*n+l-1] = in.dealerPolys[s*n+l-1].EvalUint(uint64(j))
			}
		}
		ctx.Send(sim.ProcID(j), DealVals{MW: id, Vals: vals})
	}
	for l := 1; l <= n; l++ {
		shares := make([]field.Element, 0, k*(t+1))
		for s := 0; s < k; s++ {
			shares = append(shares, in.dealerPolys[s*n+l-1].EvalRange(t+1)...)
		}
		ctx.Send(sim.ProcID(l), DealPoly{MW: id, Shares: shares})
	}
	mod := make([]field.Element, 0, k*(t+1))
	for s := 0; s < k; s++ {
		mod = append(mod, fs[s].EvalRange(t+1)...)
	}
	ctx.Send(id.Key.Moderator, DealMod{MW: id, Shares: mod})
	return nil
}

// SetModeratorSecret provides the moderator's input s' for a width-1
// instance (the calling process must be the instance moderator).
func (e *Engine) SetModeratorSecret(ctx sim.Context, id proto.MWID, s field.Element) error {
	return e.SetModeratorSecretVec(ctx, id, []field.Element{s})
}

// SetModeratorSecretVec provides the moderator's input vector s'^0..s'^k-1.
func (e *Engine) SetModeratorSecretVec(ctx sim.Context, id proto.MWID, s []field.Element) error {
	if id.Key.Moderator != e.host.Self() {
		return fmt.Errorf("mwsvss: process %d is not moderator of %s", e.host.Self(), id)
	}
	in := e.inst(ctx, id)
	if in == nil {
		return fmt.Errorf("mwsvss: instance %s has a process id outside the wire domain", id)
	}
	in.moderator().modSecrets = append([]field.Element(nil), s...)
	e.advance(ctx, in)
	return nil
}

// Reconstruct begins protocol R' for slot 0 of id. If the share phase
// has not completed locally yet, reconstruction starts as soon as it
// does.
func (e *Engine) Reconstruct(ctx sim.Context, id proto.MWID) {
	e.ReconstructSlot(ctx, id, 0)
}

// ReconstructSlot begins protocol R' for one batch slot of id. Each
// slot reconstructs independently: only its own value vector entries
// are revealed, so the batch's other secrets stay hidden.
func (e *Engine) ReconstructSlot(ctx sim.Context, id proto.MWID, slot int) {
	e.ReconstructSlots(ctx, id, []int{slot})
}

// ReconstructSlots begins protocol R' for a set of batch slots in one
// pass. The slots enqueue together before a single advance, so the
// reveal drain puts them all in one slab broadcast instead of one per
// slot.
func (e *Engine) ReconstructSlots(ctx sim.Context, id proto.MWID, slots []int) {
	in := e.inst(ctx, id)
	if in == nil {
		return
	}
	pump := false
	for _, slot := range slots {
		if slot < 0 || slot >= MaxBatchSlots {
			continue
		}
		pump = true
		if rc := in.recon(); rc.reconWanted.Add(slot) {
			rc.startQueue = append(rc.startQueue, slot)
		}
	}
	if pump {
		e.advance(ctx, in)
	}
}

// OnMessage handles the direct (non-broadcast) MW-SVSS messages.
func (e *Engine) OnMessage(ctx sim.Context, m sim.Message) {
	switch p := m.Payload.(type) {
	case DealVals:
		in := e.inst(ctx, p.MW)
		// Step 2 precondition: the values must come from the dealer and
		// agree with the instance's batch geometry.
		n := ctx.N()
		if in == nil || m.From != p.MW.Key.Dealer || in.valsSet || len(p.Vals) == 0 || len(p.Vals)%n != 0 {
			return
		}
		if !in.setWidth(len(p.Vals) / n) {
			return
		}
		in.vals = p.Vals
		in.valsSet = true
		e.advance(ctx, in)
	case DealPoly:
		in := e.inst(ctx, p.MW)
		span := ctx.T() + 1
		if in == nil || m.From != p.MW.Key.Dealer || in.myPolySet || len(p.Shares) == 0 || len(p.Shares)%span != 0 {
			return
		}
		if !in.setWidth(len(p.Shares) / span) {
			return
		}
		polys := make([]poly.Poly, in.k)
		for s := 0; s < in.k; s++ {
			f, err := poly.InterpolateFromShares(p.Shares[s*span:(s+1)*span], ctx.T())
			if err != nil {
				return
			}
			polys[s] = f
		}
		in.myPolys = polys
		in.myPolySet = true
		e.advance(ctx, in)
	case DealMod:
		if p.MW.Key.Moderator != e.host.Self() {
			return
		}
		in := e.inst(ctx, p.MW)
		span := ctx.T() + 1
		if in == nil || m.From != p.MW.Key.Dealer || (in.mod != nil && in.mod.modFSet) || len(p.Shares) == 0 || len(p.Shares)%span != 0 {
			return
		}
		if !in.setWidth(len(p.Shares) / span) {
			return
		}
		polys := make([]poly.Poly, in.k)
		for s := 0; s < in.k; s++ {
			f, err := poly.InterpolateFromShares(p.Shares[s*span:(s+1)*span], ctx.T())
			if err != nil {
				return
			}
			polys[s] = f
		}
		mod := in.moderator()
		mod.modFs = polys
		mod.modFSet = true
		e.advance(ctx, in)
	case Echo:
		in := e.inst(ctx, p.MW)
		// Fan-out pruning: echoes only feed the live-L admission of step
		// 3, which stops at the L_j snapshot (step 4). Echoes arriving
		// after the snapshot are inert for this instance — never recorded,
		// never re-sent (step 2's one-shot guard already holds), so the
		// per-instance echo state stays bounded at the snapshot size.
		if in == nil || in.lDone {
			return
		}
		if len(p.Vals) == 0 || len(p.Vals) > MaxBatchSlots {
			return
		}
		if !in.echoSeen.Add(m.From) {
			return
		}
		if in.echoVals == nil {
			in.echoVals = make([][]field.Element, e.n+1)
		}
		in.echoVals[m.From] = p.Vals
		e.advance(ctx, in)
	case ModValue:
		if p.MW.Key.Moderator != e.host.Self() {
			return
		}
		in := e.inst(ctx, p.MW)
		// Same pruning on the moderator side: values only feed the M
		// admission of steps 5-6, which stops once M is broadcast.
		if in == nil || (in.mod != nil && in.mod.mBroadcast) {
			return
		}
		if len(p.Vals) == 0 || len(p.Vals) > MaxBatchSlots {
			return
		}
		mod := in.moderator()
		if !mod.modValSeen.Add(m.From) {
			return
		}
		if mod.modVals == nil {
			mod.modVals = make([][]field.Element, e.n+1)
		}
		mod.modVals[m.From] = p.Vals
		e.advance(ctx, in)
	}
}

// rIdx flattens (slot, target) for the per-slot reconstruct collections.
func rIdx(n, slot int, target sim.ProcID) int { return slot*(n+1) + int(target) }

// ensureRecon returns the reconstruct state, its per-slot collections
// grown to cover slot.
func (in *instance) ensureRecon(n, slot int) *reconState {
	rc := in.recon()
	want := (slot + 1) * (n + 1)
	rc.revealedBy = grow(rc.revealedBy, slot+1)
	rc.kSets = grow(rc.kSets, want)
	rc.fBar = grow(rc.fBar, want)
	return rc
}

// grow extends s with zero values to at least length n.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// ObserveBroadcast is the pre-filter hook: it runs DMM steps 2/3 on
// reconstruct-phase reveals before any delay/park decision. Like
// OnBroadcast, it reads the slab in place.
func (e *Engine) ObserveBroadcast(origin sim.ProcID, t proto.Tag, value []byte) {
	if t.Step != StepRValSlab || e.n == 0 {
		return
	}
	sl, ok := parseSlab(value, e.n)
	if !ok {
		return
	}
	id := proto.MWID{Session: t.Session, Key: t.MW}
	for i, slot := range sl.slots {
		for l := range sl.n {
			e.host.DMM().ObserveValueBroadcast(origin, id, sim.ProcID(l+1), uint16(slot), sl.share(i*sl.n+l))
		}
	}
}

// OnBroadcast handles RB-accepted MW-SVSS broadcasts.
func (e *Engine) OnBroadcast(ctx sim.Context, origin sim.ProcID, t proto.Tag, value []byte) {
	id := proto.MWID{Session: t.Session, Key: t.MW}
	in := e.inst(ctx, id)
	if in == nil {
		return
	}
	switch t.Step {
	case StepAck:
		in.ackFrom.Add(origin)
	case StepL:
		if in.lKnown.Has(origin) {
			return
		}
		ps, ok := proto.DecodeProcSet(value, ctx.N())
		if !ok {
			return
		}
		if in.lSets == nil {
			in.lSets = make([][]sim.ProcID, e.n+1)
		}
		in.lKnown.Add(origin)
		in.lSets[origin] = ps
	case StepM:
		if origin != id.Key.Moderator || in.mKnown {
			return
		}
		ps, ok := proto.DecodeProcSet(value, ctx.N())
		if !ok {
			return
		}
		in.mSet = ps
		in.mKnown = true
	case StepOK:
		if origin != id.Key.Dealer {
			return
		}
		in.okKnown = true
	case StepRValSlab:
		// The reveal: one share row per named slot. Reconstruction
		// pruning: once a slot's R' produced its output locally, or once
		// f̄^slot_target is already interpolated, further entries for that
		// (slot, target) change nothing here. They are still observed by
		// the DMM (ObserveBroadcast runs before this handler and resolves
		// ACK/DEAL expectations unconditionally), so only the dead
		// protocol bookkeeping is skipped. The reveal broadcast itself (R'
		// step 1) is never suppressed: every confirmer's reveal resolves
		// DMM expectations installed at other processes, and a suppressed
		// reveal would leave those expectations permanently stale — an
		// implicit shun of an honest process.
		n := ctx.N()
		sl, ok := parseSlab(value, n)
		if !ok {
			return
		}
		for i, slot := range sl.slots {
			if in.reconDone(slot) || (in.k > 0 && slot >= in.k) {
				continue
			}
			// A reveal always carries the origin's whole row, so one row
			// per (slot, origin) is all a slot can use: a second slab
			// naming the slot under another tag adds nothing.
			rc := in.ensureRecon(n, slot)
			if !rc.revealedBy[slot].Add(origin) {
				continue
			}
			for l := range n {
				target := sim.ProcID(l + 1)
				if !rc.fBarSet.Has(rIdx(n, slot, target)) {
					rc.rvalsPending = append(rc.rvalsPending, rval{origin: origin, target: target, slot: slot, val: sl.share(i*n + l)})
				}
			}
		}
	}
	e.advance(ctx, in)
}

// advance re-evaluates every enabled protocol step for the instance.
func (e *Engine) advance(ctx sim.Context, in *instance) {
	self := e.host.Self()
	n, t := ctx.N(), ctx.T()

	// Step 2: echo dealer values and RB an ack. The echo to l carries the
	// whole per-slot vector f̂^j_l — one message per counterparty for the
	// entire batch.
	if in.valsSet && in.myPolySet && !in.sentStep2 {
		in.sentStep2 = true
		for l := 1; l <= n; l++ {
			es := make([]field.Element, in.k)
			for s := 0; s < in.k; s++ {
				es[s] = in.vals[s*n+l-1]
			}
			ctx.Send(sim.ProcID(l), Echo{MW: in.id, Vals: es})
		}
		e.host.Broadcast(ctx, tag(in.id, StepAck, 0), nil)
	}

	// Step 3: admit confirmers into the live L set and install DEAL
	// expectations. A confirmer is admitted only when its echo vector
	// matches our monitored polynomials on EVERY slot — one admission
	// covers the batch, one expectation tuple is installed per slot.
	// Stops once L_j is broadcast (the snapshot names the processes whose
	// public confirmation we await). Set bits iterate in process-id order
	// — admission is order-insensitive, but the run must stay a
	// deterministic function of the seed.
	if in.myPolySet && !in.lDone {
		in.echoSeen.ForEach(func(l sim.ProcID) {
			if in.dealSet.Has(l) || !in.ackFrom.Has(l) {
				return
			}
			vs := in.echoVals[l]
			if len(vs) != in.k {
				return
			}
			for s := 0; s < in.k; s++ {
				if vs[s] != in.myPolys[s].EvalUint(uint64(l)) {
					return
				}
			}
			in.dealSet.Add(l)
			e.host.DMM().ExpectVec(l, self, in.id, dmm.SourceDEAL, vs)
		})
	}

	// Step 4: broadcast the snapshot L_j and send f̂^s_j(0) per slot to
	// the moderator.
	if !in.lDone && in.dealSet.Count() >= n-t {
		in.lDone = true
		in.lSnapshot = in.dealSet.Slice()
		// The echo buffer only feeds step 3, which the snapshot closes;
		// release it (late echoes are dropped on arrival from here on).
		in.echoVals = nil
		in.echoSeen.Clear()
		e.host.Broadcast(ctx, tag(in.id, StepL, 0), proto.EncodeProcSet(in.lSnapshot))
		vs := make([]field.Element, in.k)
		for s := 0; s < in.k; s++ {
			vs[s] = in.myPolys[s].Secret()
		}
		ctx.Send(in.id.Key.Moderator, ModValue{MW: in.id, Vals: vs})
	}

	// Steps 5-6 (moderator): admit j into M when every check passes on
	// every slot, then broadcast M once it reaches n-t.
	if mod := in.mod; in.id.Key.Moderator == self && mod != nil && mod.modSecrets != nil && mod.modFSet &&
		len(mod.modSecrets) == in.k && e.modSecretsMatch(in) && !mod.mBroadcast {
		mod.modValSeen.ForEach(func(j sim.ProcID) {
			if mod.modM.Has(j) || !in.lKnown.Has(j) {
				return
			}
			vs := mod.modVals[j]
			if len(vs) != in.k {
				return
			}
			for s := 0; s < in.k; s++ {
				if vs[s] != mod.modFs[s].EvalUint(uint64(j)) {
					return
				}
			}
			if !in.ackFrom.ContainsAll(in.lSets[j]) {
				return
			}
			mod.modM.Add(j)
		})
		if mod.modM.Count() >= n-t {
			mod.mBroadcast = true
			// The value buffer only feeds the admission above, which the
			// M broadcast closes; release it.
			mod.modVals = nil
			e.host.Broadcast(ctx, tag(in.id, StepM, 0), proto.EncodeProcSet(mod.modM.Slice()))
		}
	}

	// Step 7 (dealer): once M̂, every L̂_j (j ∈ M̂) and their acks are in,
	// install ACK expectations (one per slot) and broadcast OK.
	if in.id.Key.Dealer == self && in.isDealing && in.mKnown && !in.dealerOK &&
		e.lSetsComplete(in) {
		in.dealerOK = true
		for _, j := range in.mSet {
			for _, l := range in.lSets[j] {
				vs := make([]field.Element, in.k)
				for s := 0; s < in.k; s++ {
					vs[s] = in.dealerPolys[s*n+int(j)-1].EvalUint(uint64(l))
				}
				e.host.DMM().ExpectVec(l, j, in.id, dmm.SourceACK, vs)
			}
		}
		e.host.Broadcast(ctx, tag(in.id, StepOK, 0), nil)
	}

	// Step 8: if the moderator's set excludes us, drop our DEAL
	// expectations for this session (all slots at once — confirmation is
	// batch-wide).
	if in.mKnown && !in.dropDone && !procsContain(in.mSet, self) {
		in.dropDone = true
		e.host.DMM().DropDealExpectations(in.id)
	}

	// Step 9: completion of S' — covers every slot of the batch.
	if !in.shareDone && in.okKnown && in.mKnown && e.lSetsComplete(in) {
		in.shareDone = true
		if e.cb.ShareComplete != nil {
			e.cb.ShareComplete(ctx, in.id)
		}
	}

	// R' step 1, per wanted slot: reveal our shares of every monitored
	// polynomial — for that slot ONLY. Receivers keep the entries of the
	// polynomials we confirmed (we appear in L̂_l for l ∈ M̂). The rest of the batch stays hidden until someone asks
	// for it; a single reveal pass over the whole batch would leak every
	// future coin round to the adversary at the first flip.
	rc := in.rc
	var startedNow []int
	if in.shareDone && rc != nil && len(rc.startQueue) > 0 {
		queue := rc.startQueue
		rc.startQueue = rc.startQueue[:0]
		for _, s := range queue {
			if !rc.reconStarted.Add(s) {
				continue
			}
			startedNow = append(startedNow, s)
		}
		if in.valsSet && len(startedNow) > 0 {
			e.revealSlots(ctx, in, startedNow)
		}
	}

	// R' step 2: qualify buffered value broadcasts into the K sets,
	// collecting the touched cells so steps 3 and 4 only revisit state
	// that actually changed. The old full rescans were fine for width-1
	// sessions but turn O(width) per delivery on batched dealings —
	// thousands of events against a 64-slot instance each re-walked
	// every (slot, target) cell.
	var touched []int
	if in.mKnown && rc != nil {
		kept := rc.rvalsPending[:0]
		for _, rv := range rc.rvalsPending {
			idx := rIdx(n, rv.slot, rv.target)
			if rc.fBarSet.Has(idx) {
				continue // f̄^slot_target already interpolated: surplus point
			}
			if !procsContain(in.mSet, rv.target) {
				continue // target outside M̂: irrelevant forever
			}
			if !in.lKnown.Has(rv.target) {
				kept = append(kept, rv) // L̂_target still in flight
				continue
			}
			if !procsContain(in.lSets[rv.target], rv.origin) {
				continue // never qualifies: origin not a confirmer
			}
			rc.kSets[idx] = append(rc.kSets[idx], poly.Point{
				X: field.New(uint64(rv.origin)),
				Y: rv.val,
			})
			touched = append(touched, idx)
		}
		rc.rvalsPending = kept
	}

	// R' step 3: interpolate f̄^s_l from the first t+1 qualified points.
	// Only cells that gained a point this pass can newly qualify.
	var fresh []int
	for _, idx := range touched {
		pts := rc.kSets[idx]
		if len(pts) < t+1 || rc.fBarSet.Has(idx) {
			continue
		}
		f, err := poly.Interpolate(pts[:t+1])
		if err != nil {
			continue
		}
		rc.fBar[idx] = f
		rc.fBarSet.Add(idx)
		fresh = append(fresh, idx)
	}

	// R' step 4, per started slot: once every f̄^s_l (l ∈ M̂) is known,
	// interpolate f̄^s and output f̄^s(0), or ⊥ when no degree-t
	// polynomial fits. Completion is per slot, both here and in the DMM
	// (only the revealed slot's expectations may go stale). A slot's
	// completion condition can only flip when one of its cells gained an
	// f̄ (fresh), when the slot was just started, or — once — when M̂
	// lands; everything else re-checks nothing.
	if in.mKnown && len(in.mSet) > 0 {
		if !in.mSwept {
			in.mSwept = true
			if rc != nil {
				rc.reconStarted.ForEach(func(s int) { e.tryCompleteSlot(ctx, in, s) })
			}
		} else {
			for _, s := range startedNow {
				e.tryCompleteSlot(ctx, in, s)
			}
			for _, idx := range fresh {
				e.tryCompleteSlot(ctx, in, idx/(n+1))
			}
		}
	}
}

// revealSlots emits the R' step 1 reveal for newly started slots: one
// slab broadcast carrying our whole share row of each slot, whatever the
// instance width. A coin flip opens one slot per attach target, so the
// whole flip reveals at once.
func (e *Engine) revealSlots(ctx sim.Context, in *instance, slots []int) {
	n := ctx.N()
	eligible := make([]int, 0, len(slots))
	for _, s := range slots {
		if s < in.k {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) == 0 {
		return
	}
	sort.Ints(eligible)
	rows := make([]field.Element, 0, len(eligible)*n)
	for _, s := range eligible {
		rows = append(rows, in.vals[s*n:(s+1)*n]...)
	}
	// The tag's A field carries the first slot purely to keep the RB
	// instance key unique per slab: a slot starts at most once, so slab
	// slot lists never overlap across drains. Receivers read the slot
	// list from the payload, not the tag.
	e.host.Broadcast(ctx, tag(in.id, StepRValSlab, uint32(eligible[0])), EncodeSlab(eligible, rows))
}

// tryCompleteSlot finishes R' step 4 for one started slot if every
// f̄^slot_l (l ∈ M̂) is interpolated. Idempotent per slot.
func (e *Engine) tryCompleteSlot(ctx sim.Context, in *instance, s int) {
	n, t := ctx.N(), ctx.T()
	if in.rc == nil || in.rc.reconDone.Has(s) || !in.rc.reconStarted.Has(s) {
		return
	}
	rc := in.ensureRecon(n, s)
	pts := make([]poly.Point, 0, len(in.mSet))
	for _, l := range in.mSet {
		idx := rIdx(n, s, l)
		if !rc.fBarSet.Has(idx) {
			return
		}
		pts = append(pts, poly.Point{X: field.New(uint64(l)), Y: rc.fBar[idx].Secret()})
	}
	rc.reconDone.Add(s)
	out := Output{Bottom: true}
	if f, ok, err := poly.InterpolateDegree(pts, t); err == nil && ok {
		out = Output{Value: f.Secret()}
	}
	e.host.DMM().CompleteReconstructSlot(in.id, uint16(s))
	if e.cb.ReconstructComplete != nil {
		e.cb.ReconstructComplete(ctx, in.id, s, out)
	}
}

// modSecretsMatch reports whether every slot's reconstructed dealer
// polynomial binds the moderator's input for that slot (the step 5
// precondition, batch-wide).
func (e *Engine) modSecretsMatch(in *instance) bool {
	for s := 0; s < in.k; s++ {
		if in.mod.modFs[s].Secret() != in.mod.modSecrets[s] {
			return false
		}
	}
	return true
}

// lSetsComplete reports whether M̂ is known, every L̂_j for j ∈ M̂ has been
// accepted, and every member of each such L̂_j has acked (the shared
// condition of steps 7 and 9).
func (e *Engine) lSetsComplete(in *instance) bool {
	if !in.mKnown {
		return false
	}
	for _, j := range in.mSet {
		if !in.lKnown.Has(j) {
			return false
		}
		if !in.ackFrom.ContainsAll(in.lSets[j]) {
			return false
		}
	}
	return true
}

func procsContain(ps []sim.ProcID, p sim.ProcID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}
