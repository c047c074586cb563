package dmm

// The DMM as it was before the dense representation (session slab,
// one-word expectation keys), kept verbatim as a test-only oracle for
// the differential test in differential_test.go. Only names changed
// (DMM → oracle, New → newOracle, expectKey → oracleKey, ...); the
// exported types it shares with the package (Event, Action, Source,
// Expectation, ShunFunc) are not repeated here; and Filter no longer
// stores the park stamp in the event — Event lost its never-read parkAt
// field — though the tick itself is kept.

import (
	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// oracleKey names one expectation entry. Batched sessions keep ALL
// their slots inside one entry (a value vector plus a pending bitmap),
// so installing a K-slot dealing's expectations costs one map insert,
// not K — the point of batching is to pay the quorum bookkeeping once
// per dealing, and the expectation store must not reintroduce the
// per-slot cost through the back door.
type oracleKey struct {
	sender  sim.ProcID
	target  sim.ProcID
	session proto.MWID
	source  Source
}

// oracleEntry holds the per-slot expected values of one key. pending
// marks slots that are installed and not yet resolved; npend counts
// them so entry removal is O(1) to detect.
type oracleEntry struct {
	vals    []field.Element
	pending []bool
	npend   int
}

func (en *oracleEntry) has(s int) bool { return s < len(en.pending) && en.pending[s] }

func (en *oracleEntry) set(s int, v field.Element) {
	for len(en.pending) <= s {
		en.pending = append(en.pending, false)
		en.vals = append(en.vals, 0)
	}
	en.vals[s] = v
	en.pending[s] = true
	en.npend++
}

// oracle is the pre-dense DMM: the per-process detection and message
// management state keyed by full MWIDs in maps.
type oracle struct {
	self    sim.ProcID
	clock   int64
	began   map[proto.MWID]int64
	redone  map[proto.MWID]int64
	faulty  map[sim.ProcID]bool
	expect  map[oracleKey]*oracleEntry
	tuples  int
	perProc map[sim.ProcID]map[oracleKey]struct{}
	// staleBySender indexes, per sender, the completed-reconstruct
	// session slots that still have pending expectations (with their
	// completion stamps). The delay predicate of Filter only involves
	// stale slots, which are empty in fault-free runs, so indexing
	// them keeps filtering O(1) on the hot path. Staleness is per slot:
	// a batched session reconstructs slot by slot, and only the tuples
	// of an actually-reconstructed slot may delay a sender — marking
	// the whole batch stale on the first slot's completion would delay
	// honest senders on slots nobody has revealed yet.
	staleBySender map[sim.ProcID]map[oracleSlotRef]int64
	// redoneBySession stamps the slots each session has completed
	// reconstruction of (per-slot idempotence for
	// CompleteReconstructSlot, and the install-after-completion check
	// in Expect — the session lookup is one map access for a whole
	// batch install).
	redoneBySession map[proto.MWID]map[uint16]int64
	// keysBySession indexes live expectation keys per session (all
	// slots) so step 8 (DropDealExpectations) touches only its own
	// session instead of sweeping every pending expectation in the
	// process.
	keysBySession map[proto.MWID]map[oracleKey]struct{}
	parked        []Event
	onShun        ShunFunc
	disabled      bool

	// Detections counts D_i additions; Resolved counts matched
	// expectations; Contradictions counts mismatched broadcasts.
	Detections     int
	Resolved       int
	Contradictions int
}

// oracleSlotRef names one batch slot of one session.
type oracleSlotRef struct {
	session proto.MWID
	slot    uint16
}

// newOracle returns the oracle DMM state for process self.
func newOracle(self sim.ProcID, onShun ShunFunc) *oracle {
	return &oracle{
		self:            self,
		began:           make(map[proto.MWID]int64),
		redone:          make(map[proto.MWID]int64),
		faulty:          make(map[sim.ProcID]bool),
		expect:          make(map[oracleKey]*oracleEntry),
		perProc:         make(map[sim.ProcID]map[oracleKey]struct{}),
		staleBySender:   make(map[sim.ProcID]map[oracleSlotRef]int64),
		redoneBySession: make(map[proto.MWID]map[uint16]int64),
		keysBySession:   make(map[proto.MWID]map[oracleKey]struct{}),
		onShun:          onShun,
	}
}

// Self returns the owning process id.
func (d *oracle) Self() sim.ProcID { return d.self }

// tick advances the local logical clock.
func (d *oracle) tick() int64 {
	d.clock++
	return d.clock
}

// BeginShare stamps the moment i begins the share protocol of a session
// (first local participation). Idempotent.
func (d *oracle) BeginShare(ref proto.MWID) {
	if _, ok := d.began[ref]; !ok {
		d.began[ref] = d.tick()
	}
}

// CompleteReconstruct stamps the moment i completes the reconstruct
// protocol of a session (all slots at once — the session-level entry
// used by hosts that treat the session as one unit). Idempotent.
func (d *oracle) CompleteReconstruct(ref proto.MWID) {
	// Sweep every slot that still has a pending expectation, then slot 0
	// (classic single-secret sessions may have resolved all tuples
	// already but must still stamp the →_i completion).
	seen := map[uint16]bool{}
	for k := range d.keysBySession[ref] {
		en := d.expect[k]
		if en == nil {
			continue
		}
		for s, p := range en.pending {
			if p && !seen[uint16(s)] {
				seen[uint16(s)] = true
				d.CompleteReconstructSlot(ref, uint16(s))
			}
		}
	}
	if !seen[0] {
		d.CompleteReconstructSlot(ref, 0)
	}
}

// CompleteReconstructSlot stamps the moment i completes the reconstruct
// protocol of one batch slot of a session. The session's →_i completion
// stamp is taken at the first slot to finish; staleness is tracked per
// slot. Idempotent per slot.
func (d *oracle) CompleteReconstructSlot(ref proto.MWID, slot uint16) {
	m, ok := d.redoneBySession[ref]
	if !ok {
		m = make(map[uint16]int64)
		d.redoneBySession[ref] = m
	}
	if _, done := m[slot]; done {
		return
	}
	stamp := d.tick()
	m[slot] = stamp
	if _, ok := d.redone[ref]; !ok {
		d.redone[ref] = stamp
	}
	// Any expectations still pending in this slot are now stale: the
	// senders' newer sessions must be delayed (DMM step 5).
	sr := oracleSlotRef{ref, slot}
	for k := range d.keysBySession[ref] {
		if en := d.expect[k]; en != nil && en.has(int(slot)) {
			d.addStale(k.sender, sr, stamp)
		}
	}
}

func (d *oracle) addStale(sender sim.ProcID, ref oracleSlotRef, stamp int64) {
	m, ok := d.staleBySender[sender]
	if !ok {
		m = make(map[oracleSlotRef]int64)
		d.staleBySender[sender] = m
	}
	m[ref] = stamp
}

// maybeClearStale drops the sender's stale marker for the given slot
// once no pending expectation from them remains in it. The scan over
// the sender's keys only runs when a marker exists, which requires a
// completed reconstruction with unresolved tuples — never in fault-free
// runs, so the hot path stays O(1).
func (d *oracle) maybeClearStale(sender sim.ProcID, ref oracleSlotRef) {
	m, ok := d.staleBySender[sender]
	if !ok {
		return
	}
	if _, ok := m[ref]; !ok {
		return
	}
	for k := range d.perProc[sender] {
		if k.session != ref.session {
			continue
		}
		if en := d.expect[k]; en != nil && en.has(int(ref.slot)) {
			return
		}
	}
	delete(m, ref)
	if len(m) == 0 {
		delete(d.staleBySender, sender)
	}
}

// Precedes reports a →_i b: i completed reconstruct of a before beginning
// share of b (paper §2).
func (d *oracle) Precedes(a, b proto.MWID) bool {
	ra, ok := d.redone[a]
	if !ok {
		return false
	}
	bb, ok := d.began[b]
	if !ok {
		// b has not begun; processing an event of b now would begin it
		// now, which is after every stamped completion.
		return true
	}
	return ra < bb
}

// IsFaulty reports whether j is in D_i.
func (d *oracle) IsFaulty(j sim.ProcID) bool { return !d.disabled && d.faulty[j] }

// FaultySet returns a copy of D_i.
func (d *oracle) FaultySet() []sim.ProcID {
	out := make([]sim.ProcID, 0, len(d.faulty))
	for j := range d.faulty {
		out = append(out, j)
	}
	return out
}

// markFaulty adds j to D_i (DMM steps 2/3, mismatch branch).
func (d *oracle) markFaulty(j sim.ProcID, session proto.MWID) {
	if d.faulty[j] {
		return
	}
	d.faulty[j] = true
	d.Detections++
	if d.onShun != nil {
		d.onShun(j, session)
	}
}

// entry returns (creating and indexing if needed) the expectation entry
// for k.
func (d *oracle) entry(k oracleKey) *oracleEntry {
	en, ok := d.expect[k]
	if ok {
		return en
	}
	en = &oracleEntry{}
	d.expect[k] = en
	m, ok := d.perProc[k.sender]
	if !ok {
		m = make(map[oracleKey]struct{})
		d.perProc[k.sender] = m
	}
	m[k] = struct{}{}
	ks, ok := d.keysBySession[k.session]
	if !ok {
		ks = make(map[oracleKey]struct{})
		d.keysBySession[k.session] = ks
	}
	ks[k] = struct{}{}
	return en
}

// Expect installs one expectation tuple (share steps 3 and 7). A
// duplicate (same key and slot, still pending) keeps the first value.
func (d *oracle) Expect(e Expectation) {
	k := oracleKey{sender: e.Sender, target: e.Target, session: e.Session, source: e.Source}
	en := d.entry(k)
	if en.has(int(e.Slot)) {
		return
	}
	en.set(int(e.Slot), e.Value)
	d.tuples++
	if m := d.redoneBySession[e.Session]; m != nil {
		if stamp, done := m[e.Slot]; done {
			d.addStale(e.Sender, oracleSlotRef{e.Session, e.Slot}, stamp)
		}
	}
}

// ExpectVec installs the expectation tuples of a whole batched dealing
// in one shot: vals[s] is the value Sender must broadcast for slot s
// during reconstruction. Equivalent to K calls of Expect but pays the
// index bookkeeping once — this is on the per-(pair, dealing) hot path
// of share steps 3 and 7, where per-slot map traffic would scale the
// quorum machinery's cost right back up with the batch width.
func (d *oracle) ExpectVec(sender, target sim.ProcID, session proto.MWID, source Source, vals []field.Element) {
	k := oracleKey{sender: sender, target: target, session: session, source: source}
	en := d.entry(k)
	redone := d.redoneBySession[session]
	for s, v := range vals {
		if en.has(s) {
			continue
		}
		en.set(s, v)
		d.tuples++
		if redone != nil {
			if stamp, done := redone[uint16(s)]; done {
				d.addStale(sender, oracleSlotRef{session, uint16(s)}, stamp)
			}
		}
	}
}

// DropDealExpectations removes every DEAL_i tuple of the given session
// (share step 8: i is not in the moderator's set M̂, so nobody will ever
// broadcast shares of f_i for this session). Only the session's own key
// index is swept — this runs once per MW sub-instance, so a sweep of
// the process-wide expectation set here would be quadratic overall.
func (d *oracle) DropDealExpectations(session proto.MWID) {
	for k := range d.keysBySession[session] {
		if k.source == SourceDEAL {
			d.removeEntry(k)
		}
	}
}

// removeEntry drops a whole expectation entry (every pending slot) and
// clears any stale markers its slots were holding up.
func (d *oracle) removeEntry(k oracleKey) {
	en, ok := d.expect[k]
	if !ok {
		return
	}
	delete(d.expect, k)
	d.tuples -= en.npend
	if m, ok := d.perProc[k.sender]; ok {
		delete(m, k)
		if len(m) == 0 {
			delete(d.perProc, k.sender)
		}
	}
	if ks, ok := d.keysBySession[k.session]; ok {
		delete(ks, k)
		if len(ks) == 0 {
			delete(d.keysBySession, k.session)
		}
	}
	if en.npend > 0 && len(d.staleBySender[k.sender]) > 0 {
		for s, p := range en.pending {
			if p {
				d.maybeClearStale(k.sender, oracleSlotRef{k.session, uint16(s)})
			}
		}
	}
}

// resolveSlot marks one tuple of en resolved and removes the entry once
// nothing in it is pending.
func (d *oracle) resolveSlot(k oracleKey, en *oracleEntry, s int) {
	en.pending[s] = false
	en.npend--
	d.tuples--
	d.maybeClearStale(k.sender, oracleSlotRef{k.session, uint16(s)})
	if en.npend == 0 {
		d.removeEntry(k)
	}
}

// Disable turns the DMM into a pass-through (no detection, no delaying,
// no discarding) — the ablation mode of experiment E8, which shows that
// without shunning the adversary can keep ruining sessions forever.
func (d *oracle) Disable() { d.disabled = true }

// Reset drops every expectation, session stamp and parked event,
// keeping only the detection counters. Used when the owning stack
// retires (no further events will be filtered).
func (d *oracle) Reset() {
	clear(d.began)
	clear(d.redone)
	clear(d.faulty)
	clear(d.expect)
	d.tuples = 0
	clear(d.perProc)
	clear(d.staleBySender)
	clear(d.redoneBySession)
	clear(d.keysBySession)
	d.parked = nil
}

// ObserveValueBroadcast runs DMM steps 2 and 3 on a reconstruct-phase
// value broadcast: origin RB-broadcast "f_target(origin) = value" for one
// batch slot of the given session. Matching expectations are resolved; a
// contradiction adds origin to D_i. Runs unconditionally on receipt
// (resolution is DMM bookkeeping, not protocol action, and must not
// itself be delayed).
func (d *oracle) ObserveValueBroadcast(origin sim.ProcID, session proto.MWID, target sim.ProcID, slot uint16, value field.Element) {
	if d.disabled {
		return
	}
	for _, src := range [2]Source{SourceACK, SourceDEAL} {
		k := oracleKey{sender: origin, target: target, session: session, source: src}
		en, ok := d.expect[k]
		if !ok || !en.has(int(slot)) {
			continue
		}
		if en.vals[slot] == value {
			d.Resolved++
			d.resolveSlot(k, en, int(slot))
		} else {
			d.Contradictions++
			d.markFaulty(origin, session)
		}
	}
}

// PendingFrom reports whether any expectation from j is outstanding.
func (d *oracle) PendingFrom(j sim.ProcID) bool {
	return len(d.perProc[j]) > 0
}

// PendingCount returns the number of outstanding expectation tuples
// (per slot — a batched entry counts once per pending slot).
func (d *oracle) PendingCount() int { return d.tuples }

// StaleExpectations returns expectations whose session slot already
// completed reconstruction locally — each is an implicit shun in
// progress (the sender's newer sessions are being delayed indefinitely).
func (d *oracle) StaleExpectations() []Expectation {
	var out []Expectation
	for k, en := range d.expect {
		redone := d.redoneBySession[k.session]
		if redone == nil {
			continue
		}
		for s, p := range en.pending {
			if !p {
				continue
			}
			if _, done := redone[uint16(s)]; done {
				out = append(out, Expectation{
					Sender: k.sender, Target: k.target, Session: k.session,
					Slot: uint16(s), Value: en.vals[s], Source: k.source,
				})
			}
		}
	}
	return out
}

// shouldDelay implements DMM step 5: delay an event of session ref from j
// if some expectation from j belongs to a session that →_i-precedes ref.
// Only sessions that completed reconstruction can precede anything, and
// those are indexed in staleBySender, so the common case is O(1).
func (d *oracle) shouldDelay(j sim.ProcID, ref proto.MWID) bool {
	stale := d.staleBySender[j]
	if len(stale) == 0 {
		return false
	}
	begin, begun := d.began[ref]
	for _, stamp := range stale {
		if !begun || stamp < begin {
			return true
		}
	}
	return false
}

// Filter decides an event's fate; Parked events are held internally and
// surface later through TakeReady.
func (d *oracle) Filter(ev Event) Action {
	if d.disabled {
		return Forward
	}
	if d.faulty[ev.From] {
		return Discarded
	}
	if d.shouldDelay(ev.From, ev.Ref) {
		d.tick()
		d.parked = append(d.parked, ev)
		return Parked
	}
	return Forward
}

// TakeReady returns parked events that are no longer delayed, in park
// order. Events from processes meanwhile added to D_i are discarded.
// Hosts call this after every delivery so releases happen promptly.
func (d *oracle) TakeReady() []Event {
	if len(d.parked) == 0 {
		return nil
	}
	var ready []Event
	kept := d.parked[:0]
	for _, ev := range d.parked {
		switch {
		case d.faulty[ev.From]:
			// drop
		case d.shouldDelay(ev.From, ev.Ref):
			kept = append(kept, ev)
		default:
			ready = append(ready, ev)
		}
	}
	d.parked = kept
	return ready
}

// ParkedCount returns how many events are currently delayed.
func (d *oracle) ParkedCount() int { return len(d.parked) }
