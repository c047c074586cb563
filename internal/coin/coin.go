// Package coin implements the Shunning Common Coin (SCC) of paper §5
// (Definition 2): a protocol in which every invocation either behaves as
// a (1/4, 1/4)-common coin — for each σ ∈ {0,1}, with probability at
// least 1/4 all nonfaulty processes output σ — or causes some nonfaulty
// process to shun a newly detected faulty process. Since shunning can
// happen at most t(n−t) times, only O(n²) coin invocations can ever
// fail, which is what makes the agreement protocol almost-surely
// terminating with polynomial expected round count.
//
// Construction (the Canetti–Rabin coin, with the paper's SVSS
// substituted for AVSS so detections accumulate across invocations):
//
//  1. For a coin round r, every process i SVSS-shares n lottery secrets
//     s_{i,1..n} drawn from [0, n^4); s_{i,j} is "attached to" process j.
//  2. When the first t+1 sharings attached to itself complete, process j
//     reliably broadcasts its attach set A_j (t+1 dealers). Process j's
//     lottery value is V_j = Σ_{k∈A_j} s_{k,j} mod n^4 — fixed by SVSS
//     Binding when the sharings completed, uniform and unknown to the
//     adversary by SVSS Hiding (A_j contains at least one honest dealer).
//  3. Process i "verifies" j once it received A_j and locally completed
//     the share phases of all sharings in A_j. Verified parties feed the
//     three-round gather protocol, whose outputs contain a large common
//     core fixed before any reconstruction starts.
//  4. On gather output U_i, process i broadcasts a reconstruct
//     announcement (so every honest process joins the reconstructions —
//     SVSS Termination requires all nonfaulty to begin R) and
//     reconstructs V_j for every j ∈ U_i. It outputs the parity of the
//     minimum (V_j, j) pair. If the global minimum lands in the common
//     core (probability ≥ (n−t)/n), all processes output the same
//     parity; the parity is uniform, giving ≥ 1/4 per value of σ.
//
// A ⊥ sub-output (possible only when binding was broken, i.e. a shun
// already happened) excludes that party from the minimum; such rounds
// fall under the second clause of SCC Correctness.
package coin

import (
	"sort"

	"svssba/internal/field"
	"svssba/internal/gather"
	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// Broadcast steps (Proto = proto.ProtoCoin; Tag.A carries the round).
const (
	// StepAttach announces a process's attach set A_j.
	StepAttach uint8 = 1
	// StepRecon announces a gather output, instructing everyone to join
	// the reconstructions it references.
	StepRecon uint8 = 2
)

// Host is what the engine needs from its process.
type Host interface {
	Self() sim.ProcID
	Broadcast(ctx sim.Context, tag proto.Tag, value []byte)
}

// SVSSPort is the slice of the SVSS engine the coin drives.
type SVSSPort interface {
	Share(ctx sim.Context, sid proto.SessionID, secret field.Element) error
	Reconstruct(ctx sim.Context, sid proto.SessionID)
}

// Supply is a source of pre-dealt batched lottery sharings covering coin
// rounds 1..Rounds(). For those rounds the engine consumes slots from
// the supply instead of dealing per-round sessions; rounds beyond
// Rounds() fall back to classic self-dealing (the mode of a round is a
// pure function of its number, so all processes agree on it without
// communication). The one implementation is the cross-session pool
// consumer, coinpool.Consumer (this package cannot import coinpool).
type Supply interface {
	// Rounds is the number of coin rounds the supply covers (fixed).
	Rounds() int
	// EnsureDealt makes this process deal its own batch if it has not
	// yet (idempotent; a pool supply that dealt ahead of demand no-ops).
	EnsureDealt(ctx sim.Context)
	// DoneOrder lists dealers whose batch sharings completed locally, in
	// completion order.
	DoneOrder() []sim.ProcID
	// Reconstruct opens the slots holding dealer k's secrets attached to
	// the given targets in round r, as one grouped request (the targets
	// of one coin pass map to adjacent slots, which the layers below
	// reveal together). Implementations must hand out each slot at most
	// once (one-shot handout), skipping — and counting — repeats.
	Reconstruct(ctx sim.Context, k sim.ProcID, r uint64, targets []sim.ProcID)
}

// CoinFunc receives the coin output for a round.
type CoinFunc func(ctx sim.Context, round uint64, bit int)

// SessionFor returns the SVSS session id of dealer k's secret attached
// to target j in coin round r (classic, unbatched dealing).
func SessionFor(k sim.ProcID, r uint64, j sim.ProcID) proto.SessionID {
	return proto.SessionID{Dealer: k, Kind: proto.KindCoin, Round: r, Index: uint32(j)}
}

// BatchSessionFor returns dealer k's batched coin dealing session. The
// id is disjoint from every classic coin session: classic ids carry the
// attach target in Index (1..n), batched ids use Index 0.
func BatchSessionFor(k sim.ProcID) proto.SessionID {
	return proto.SessionID{Dealer: k, Kind: proto.KindCoin, Round: 0, Index: 0}
}

// round holds one coin round's state, dense per process: sets of
// parties are bitsets and per-party collections are slices indexed by
// process id (1..n). Per-(dealer, target) session state packs into a
// flat n×n index ((dealer-1)*n + target-1), so the delivery path does
// no map operations beyond the uint64 round lookup.
type round struct {
	r       uint64
	started bool
	batch   bool // lottery secrets come from the batch supply

	// completion order of dealers per target (share phases done locally)
	doneDealers [][]sim.ProcID // index: target
	doneSet     intern.Bits    // (dealer-1)*n + target-1

	attachSent bool
	attach     [][]sim.ProcID // accepted attach sets (index: origin)
	attachSet  intern.ProcSet
	verified   intern.ProcSet

	gathered   []sim.ProcID
	haveGather bool

	reconTargets intern.ProcSet // targets whose sessions to open
	reconStarted intern.ProcSet // targets we invoked R for
	outs         []svss.Output  // (dealer-1)*n + target-1
	outSet       intern.Bits

	done bool
	bit  int
}

// Engine runs the common-coin protocol; one instance per process serves
// all rounds.
type Engine struct {
	host   Host
	sv     SVSSPort
	gat    *gather.Engine
	onCoin CoinFunc
	rounds map[uint64]*round
	n      int // system size, captured from the first ctx

	supply Supply // nil: every round deals classically
}

// New returns a coin engine. The gather engine's broadcasts must be
// routed to Gather().OnBroadcast, SVSS completion events for KindCoin
// sessions to OnSVSSShareComplete/OnSVSSReconComplete, and ProtoCoin
// broadcasts to OnBroadcast (core.NewStack wires all of this).
func New(host Host, sv SVSSPort, onCoin CoinFunc) *Engine {
	e := &Engine{
		host:   host,
		sv:     sv,
		onCoin: onCoin,
		rounds: make(map[uint64]*round),
	}
	e.gat = gather.New(host, e.onGather)
	return e
}

// Gather exposes the inner gather engine for broadcast routing.
func (e *Engine) Gather() *gather.Engine { return e.gat }

func (e *Engine) round(ctx sim.Context, r uint64) *round {
	rd, ok := e.rounds[r]
	if !ok {
		if e.n == 0 {
			e.n = ctx.N()
		}
		rd = &round{
			r:           r,
			doneDealers: make([][]sim.ProcID, e.n+1),
			attach:      make([][]sim.ProcID, e.n+1),
		}
		rd.batch = e.supply != nil && r >= 1 && r <= uint64(e.supply.Rounds())
		e.rounds[r] = rd
		if rd.batch {
			// Seed from dealings that completed before this round opened.
			for _, k := range e.supply.DoneOrder() {
				e.markBatchDealer(rd, k)
			}
		}
	}
	return rd
}

// markBatchDealer records that dealer k's batched sharing is complete:
// in a batch round every (k, target) lottery session is done at once.
func (e *Engine) markBatchDealer(rd *round, k sim.ProcID) {
	for j := 1; j <= e.n; j++ {
		si := e.sessIdx(k, sim.ProcID(j))
		if si >= 0 && rd.doneSet.Add(si) {
			rd.doneDealers[j] = append(rd.doneDealers[j], k)
		}
	}
}

// sessIdx flattens a (dealer, target) pair of round r into the dense
// session index, or -1 when either id is outside 1..n (nothing outside
// that range is ever read back: attach sets and gather outputs are
// decode-validated, so bogus sessions a Byzantine process completes
// cannot appear in any quorum this engine evaluates).
func (e *Engine) sessIdx(dealer, target sim.ProcID) int {
	if dealer < 1 || int(dealer) > e.n || target < 1 || int(target) > e.n {
		return -1
	}
	return (int(dealer)-1)*e.n + int(target) - 1
}

// Done reports whether the round's coin has been output locally.
func (e *Engine) Done(r uint64) bool {
	rd, ok := e.rounds[r]
	return ok && rd.done
}

// Rounds returns the number of live round records (retirement tests).
func (e *Engine) Rounds() int { return len(e.rounds) }

// Reset drops every coin round and the inner gather engine's rounds.
// Used when the owning stack retires.
func (e *Engine) Reset() {
	clear(e.rounds)
	e.gat.Reset()
}

// Bit returns the coin output for a finished round.
func (e *Engine) Bit(r uint64) (int, bool) {
	rd, ok := e.rounds[r]
	if !ok || !rd.done {
		return 0, false
	}
	return rd.bit, true
}

// lotteryMod returns u = n^4, the lottery range.
func lotteryMod(n int) uint64 {
	u := uint64(n)
	return u * u * u * u
}

// Start begins coin round r: share one lottery secret attached to every
// process (step 1), or — in a batch round — ensure the batched dealing
// is underway and consume its slots. Idempotent.
func (e *Engine) Start(ctx sim.Context, r uint64) {
	rd := e.round(ctx, r)
	if rd.started {
		return
	}
	rd.started = true
	if rd.batch {
		e.supply.EnsureDealt(ctx)
	} else {
		u := lotteryMod(ctx.N())
		for j := 1; j <= ctx.N(); j++ {
			secret := field.New(uint64(ctx.Rand().Int63n(int64(u))))
			// Errors cannot occur: we are the dealer and the session is new.
			_ = e.sv.Share(ctx, SessionFor(e.host.Self(), r, sim.ProcID(j)), secret)
		}
	}
	e.advance(ctx, rd)
}

// SetSupply installs a batch supply covering coin rounds 1..s.Rounds().
// Call before the run starts; all processes of a run must agree on the
// supply's round count (round mode is a pure function of round number).
func (e *Engine) SetSupply(s Supply) { e.supply = s }

// OnBatchShareDone feeds a batch-dealing share completion (dealer k)
// into every batch round. The supply (the pool) calls this.
func (e *Engine) OnBatchShareDone(ctx sim.Context, k sim.ProcID) {
	e.forEachBatchRound(ctx, func(rd *round) { e.markBatchDealer(rd, k) })
}

// OnBatchRecon feeds a reconstructed batch slot (dealer k, round r,
// target j) into the round, exactly like a classic per-session
// reconstruction output.
func (e *Engine) OnBatchRecon(ctx sim.Context, k sim.ProcID, r uint64, j sim.ProcID, out svss.Output) {
	rd := e.round(ctx, r)
	si := e.sessIdx(k, j)
	if si < 0 || !rd.outSet.Add(si) {
		return
	}
	if rd.outs == nil {
		rd.outs = make([]svss.Output, e.n*e.n)
	}
	rd.outs[si] = out
	e.advance(ctx, rd)
}

// forEachBatchRound applies fn to every live batch round and advances
// it, in ascending round order (determinism: advance sends).
func (e *Engine) forEachBatchRound(ctx sim.Context, fn func(rd *round)) {
	rs := make([]uint64, 0, len(e.rounds))
	for r, rd := range e.rounds {
		if rd.batch {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	for _, r := range rs {
		rd := e.rounds[r]
		fn(rd)
		e.advance(ctx, rd)
	}
}

func tag(r uint64, step uint8) proto.Tag {
	return proto.Tag{Proto: proto.ProtoCoin, Step: step, A: uint32(r)}
}

// OnSVSSShareComplete records a locally completed coin sharing (dealer
// sid.Dealer, target sid.Index). Index 0 is a batched dealing, which
// belongs to the pool's consumer on the plane stack; a Byzantine peer
// can start one on any stack, so it is ignored here.
func (e *Engine) OnSVSSShareComplete(ctx sim.Context, sid proto.SessionID) {
	if sid.Index == 0 {
		return
	}
	rd := e.round(ctx, sid.Round)
	target := sim.ProcID(sid.Index)
	si := e.sessIdx(sid.Dealer, target)
	if si < 0 || !rd.doneSet.Add(si) {
		return
	}
	rd.doneDealers[target] = append(rd.doneDealers[target], sid.Dealer)
	e.advance(ctx, rd)
}

// OnSVSSReconComplete records a reconstructed classic lottery share
// (slot is always 0; the id carries round and target). Batched dealings
// (Index 0) are ignored, as in OnSVSSShareComplete.
func (e *Engine) OnSVSSReconComplete(ctx sim.Context, sid proto.SessionID, _ int, out svss.Output) {
	if sid.Index == 0 {
		return
	}
	rd := e.round(ctx, sid.Round)
	si := e.sessIdx(sid.Dealer, sim.ProcID(sid.Index))
	if si < 0 || !rd.outSet.Add(si) {
		return
	}
	if rd.outs == nil {
		rd.outs = make([]svss.Output, e.n*e.n)
	}
	rd.outs[si] = out
	e.advance(ctx, rd)
}

// OnBroadcast handles attach and reconstruct announcements.
func (e *Engine) OnBroadcast(ctx sim.Context, origin sim.ProcID, t proto.Tag, value []byte) {
	rd := e.round(ctx, uint64(t.A))
	switch t.Step {
	case StepAttach:
		if rd.attachSet.Has(origin) {
			return
		}
		set, ok := proto.DecodeProcSet(value, ctx.N())
		if !ok || len(set) != ctx.T()+1 {
			return
		}
		rd.attachSet.Add(origin)
		rd.attach[origin] = set
	case StepRecon:
		set, ok := proto.DecodeProcSet(value, ctx.N())
		if !ok {
			return
		}
		for _, j := range set {
			rd.reconTargets.Add(j)
		}
	default:
		return
	}
	e.advance(ctx, rd)
}

// advance re-evaluates the monotone conditions of a round.
func (e *Engine) advance(ctx sim.Context, rd *round) {
	self := e.host.Self()
	t := ctx.T()

	// Step 2: announce our attach set after t+1 sharings attached to us.
	if !rd.attachSent && len(rd.doneDealers[self]) >= t+1 {
		rd.attachSent = true
		e.host.Broadcast(ctx, tag(rd.r, StepAttach), proto.EncodeProcSet(rd.doneDealers[self][:t+1]))
	}

	// Step 3: verify parties whose attached sharings completed locally.
	// Iterate in process-id order (set bits ascend): Verify emits gather
	// traffic, and the whole run must be a deterministic function of the
	// seed.
	for p := 1; p <= ctx.N(); p++ {
		j := sim.ProcID(p)
		if !rd.attachSet.Has(j) || rd.verified.Has(j) {
			continue
		}
		ok := true
		for _, k := range rd.attach[j] {
			if !rd.doneSet.Has(e.sessIdx(k, j)) {
				ok = false
				break
			}
		}
		if ok {
			rd.verified.Add(j)
			e.gat.Verify(ctx, rd.r, j)
		}
	}

	// Step 4: open the lottery values of every reconstruct target whose
	// attach set we know — but never before our own gather output.
	// Gating the reveal on the local gather keeps every lottery value
	// hidden until the first honest process has gathered, at which point
	// the common core is already fixed; an early (possibly forged)
	// reconstruct announcement therefore cannot leak values the
	// adversary could use to steer verification adaptively.
	if rd.haveGather {
		// Process-id order for the same determinism reason as step 3. In
		// supply mode the pass first collects every target that becomes
		// ready, then issues one grouped request per dealer, which the
		// layers below reveal in a single slab broadcast instead of one
		// per slot.
		var started []sim.ProcID
		for p := 1; p <= ctx.N(); p++ {
			j := sim.ProcID(p)
			if !rd.reconTargets.Has(j) || rd.reconStarted.Has(j) {
				continue
			}
			if !rd.attachSet.Has(j) {
				continue
			}
			rd.reconStarted.Add(j)
			if rd.batch {
				started = append(started, j)
				continue
			}
			for _, k := range rd.attach[j] {
				e.sv.Reconstruct(ctx, SessionFor(k, rd.r, j))
			}
		}
		if len(started) > 0 {
			for p := 1; p <= ctx.N(); p++ {
				k := sim.ProcID(p)
				var targets []sim.ProcID
				for _, j := range started {
					if procsContain(rd.attach[j], k) {
						targets = append(targets, j)
					}
				}
				if len(targets) > 0 {
					e.supply.Reconstruct(ctx, k, rd.r, targets)
				}
			}
		}
	}

	e.tryFinish(ctx, rd)
}

// onGather receives the gathered set for a round.
func (e *Engine) onGather(ctx sim.Context, r uint64, set []sim.ProcID) {
	rd := e.round(ctx, r)
	if rd.haveGather {
		return
	}
	rd.haveGather = true
	rd.gathered = set
	// Announce so every honest process joins these reconstructions (SVSS
	// Termination requires all nonfaulty processes to begin R).
	e.host.Broadcast(ctx, tag(r, StepRecon), proto.EncodeProcSet(set))
	for _, j := range set {
		rd.reconTargets.Add(j)
	}
	e.advance(ctx, rd)
}

// tryFinish outputs the coin once every lottery value of the gathered
// set is available.
func (e *Engine) tryFinish(ctx sim.Context, rd *round) {
	if !rd.haveGather || rd.done {
		return
	}
	u := lotteryMod(ctx.N())
	bestVal := uint64(0)
	bestProc := sim.ProcID(0)
	found := false
	for _, j := range rd.gathered {
		if !rd.attachSet.Has(j) {
			return // verified implies known, but guard anyway
		}
		sum := uint64(0)
		bottom := false
		for _, k := range rd.attach[j] {
			si := e.sessIdx(k, j)
			if si < 0 || !rd.outSet.Has(si) {
				return // still reconstructing
			}
			out := rd.outs[si]
			if out.Bottom {
				bottom = true
				break
			}
			sum = (sum + out.Value.Uint64()%u) % u
		}
		if bottom {
			continue // binding was broken: a shun occurred; skip party
		}
		if !found || sum < bestVal || (sum == bestVal && j < bestProc) {
			found = true
			bestVal = sum
			bestProc = j
		}
	}
	rd.done = true
	if found {
		rd.bit = int(bestVal % 2)
	} else {
		rd.bit = 0 // all parties excluded: shun-waived round
	}
	if e.onCoin != nil {
		e.onCoin(ctx, rd.r, rd.bit)
	}
}

func procsContain(ps []sim.ProcID, p sim.ProcID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}
