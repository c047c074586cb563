// Package dmm implements the paper's Detection and Message Management
// protocol (DMM, §3.3). One DMM instance runs per process, indefinitely,
// concurrently with all VSS invocations. It decides, for every incoming
// protocol event, whether to
//
//   - discard it (sender is in D_i, the set of processes i knows to be
//     faulty — DMM step 4),
//   - delay it (the sender has an unresolved ACK_i/DEAL_i expectation from
//     a session that precedes the event's session in the →_i partial
//     order — DMM step 5), or
//   - forward it to the protocol.
//
// Expectations are created by MW-SVSS share steps 3 and 7, resolved by the
// reconstruct-phase value broadcasts (DMM steps 2 and 3), and removed
// wholesale by share step 8. A broadcast that contradicts an expectation
// adds its sender to D_i — this is how processes come to shun faulty
// processes, possibly without ever being aware of it (a process whose
// expectation is never resolved simply keeps delaying the sender's newer
// sessions forever).
//
// The →_i partial order is maintained exactly as defined in §2: session a
// precedes session b at process i iff i completed the reconstruct protocol
// of a before it began the share protocol of b. Begin/complete events are
// stamped with a per-process logical clock.
//
// # Representation
//
// The DMM sits on the per-delivery path of every process, so its state
// is dense. Each MW instance (proto.MWID, packed by proto.PackMWID) is
// interned once into a dense session id indexing a slab of session
// records; a record holds the share-begin stamp, the first and per-slot
// reconstruct-completion stamps, and the session's live expectation
// entries. An expectation key — session, source, sender, target — is one
// uint64 (see expKey), so the only per-tuple map is expect, from that
// word to an entry in a recycled slab. An entry keeps every batch slot of
// its key: slot 0's value and the pending bits of slots 0–63 inline,
// later slots in a side record, so a classic single-secret tuple costs
// no allocation of its own and the slab holds no pointer for the
// garbage collector to scan. PendingFrom is a per-sender entry count.
//
// Stale markers (a completed slot whose tuples from some sender are still
// pending — the only thing that can delay an event) are indexed per
// sender and are empty in fault-free runs, so Check is O(1) there. When
// a tuple from a stale sender resolves, the marker is cleared if no tuple
// of that sender is still pending in that slot of that session: the scan
// probes the sender's possible keys in that one session — two sources
// times the session's targets, O(n) — instead of every key the sender
// owes across all sessions, which is what keeps a long-lived,
// Byzantine-facing DMM cheap.
//
// Process ids are kept in the wire's 16 bits (proto.WireProc): an
// expectation naming a process outside that domain, or a session that
// does not pack, is not installed, and an observation or event naming one
// matches nothing — no such id can have arrived from a peer.
package dmm

import (
	"fmt"
	"math/bits"

	"svssba/internal/field"
	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Source says which expectation array a tuple lives in.
type Source uint8

// Expectation sources.
const (
	// SourceACK marks tuples of ACK_i: i is the MW dealer of the session
	// and expects Sender to broadcast "f_Target(Sender) = Value" during
	// reconstruction (added by share step 7).
	SourceACK Source = iota + 1
	// SourceDEAL marks tuples of DEAL_i: i expects Sender to broadcast
	// "f_i(Sender) = Value" during reconstruction of the session (added by
	// share step 3).
	SourceDEAL
)

// Expectation is one tuple of ACK_i or DEAL_i in the unified shape
// (sender, target polynomial index, session, batch slot, value). Slot
// distinguishes the secrets of a batched dealing: each slot carries an
// independent polynomial, reconstructs independently, and therefore
// keeps its own expectation tuples (slot 0 for classic single-secret
// sessions).
type Expectation struct {
	Sender  sim.ProcID
	Target  sim.ProcID
	Session proto.MWID
	Slot    uint16
	Value   field.Element
	Source  Source
}

func (e Expectation) String() string {
	src := "ACK"
	if e.Source == SourceDEAL {
		src = "DEAL"
	}
	return fmt.Sprintf("%s{%d->f_%d@%s#%d=%v}", src, e.Sender, e.Target, e.Session, e.Slot, e.Value)
}

// maxSessions bounds the dense session ids to the 31 bits expKey gives
// them (intern.NoID is above it, so one compare covers both). A session
// interned past it is never stamped or keyed; reaching it would take
// hundreds of gigabytes of slab first.
const maxSessions = 1 << 31

// expKey packs an expectation key into one word: dense session id (bits
// 33–63), source (bit 32: 0 = ACK, 1 = DEAL), sender (16–31), target
// (0–15). Batched sessions keep all their slots under one key, so a
// K-slot dealing's expectations cost one map insert, not K.
func expKey(sid uint32, src Source, sender, target sim.ProcID) uint64 {
	return uint64(sid)<<33 | uint64(src-SourceACK)<<32 | uint64(uint16(sender))<<16 | uint64(uint16(target))
}

func keySession(k uint64) uint32             { return uint32(k >> 33) }
func keySource(k uint64) Source              { return Source(k>>32&1) + SourceACK }
func keySender(k uint64) sim.ProcID          { return sim.ProcID(uint16(k >> 16)) }
func keyTarget(k uint64) sim.ProcID          { return sim.ProcID(uint16(k)) }
func markKey(sid uint32, slot uint16) uint64 { return uint64(sid)<<16 | uint64(slot) }

// session is the slab record of one MW instance.
type session struct {
	began  int64    // share-begin stamp; 0 = not begun
	redone int64    // first reconstruct-completion stamp; 0 = none
	done   []int64  // per-slot completion stamps; 0 = slot not completed
	keys   []uint32 // live expectation entries (indices into DMM.ents)
	// maxTarget is the largest target any expectation of the session was
	// installed with: a sender's possible keys here are the two sources
	// times targets 0..maxTarget.
	maxTarget uint16
}

func (s *session) doneAt(slot int) int64 {
	if slot < len(s.done) {
		return s.done[slot]
	}
	return 0
}

// entry holds the per-slot expected values of one key. Slot 0's value
// and the pending bits of slots 0–63 live inline, and the entry holds no
// pointer, so the slab of a process's tens of thousands of classic
// (single-slot) expectations is never scanned by the garbage collector.
// A batched dealing's later slots spill into a wideSlots record, which
// stays with the slab slot when it is recycled. npend counts the pending
// slots so entry removal is O(1) to detect.
type entry struct {
	key   uint64
	pos   uint32        // index in its session's keys
	npend uint32        // pending slots
	v0    field.Element // slot 0's value
	lo    uint64        // pending slots 0–63
	wide  uint32        // 1 + index into DMM.wide; 0 = none
}

// wideSlots holds the slots of an entry past the inline ones.
type wideSlots struct {
	vals []field.Element // slot s ≥ 1 at vals[s-1]
	hi   intern.Bits     // pending slot s ≥ 64 at index s-64
}

// staleMarks is one sender's stale slot markers. The delay predicate
// only needs the earliest stamp, which is cached; a mark's stamp never
// changes (a slot completes once), so only a deletion invalidates it.
type staleMarks struct {
	at  map[uint64]int64 // markKey -> completion stamp
	min int64            // earliest stamp in at; 0 = recompute
}

func (m *staleMarks) earliest() int64 {
	if m.min == 0 {
		for _, stamp := range m.at {
			if m.min == 0 || stamp < m.min {
				m.min = stamp
			}
		}
	}
	return m.min
}

// pending reports whether slot s of en is installed and unresolved.
func (d *DMM) pending(en *entry, s int) bool {
	if uint(s) < 64 {
		return en.lo&(1<<uint(s)) != 0
	}
	return s >= 0 && en.wide != 0 && d.wide[en.wide-1].hi.Has(s-64)
}

// eachPending calls fn for every pending slot of en in ascending order.
func (d *DMM) eachPending(en *entry, fn func(s int)) {
	for w := en.lo; w != 0; w &= w - 1 {
		fn(bits.TrailingZeros64(w))
	}
	if en.wide != 0 {
		d.wide[en.wide-1].hi.ForEach(func(i int) { fn(64 + i) })
	}
}

func (d *DMM) val(en *entry, s int) field.Element {
	if s == 0 {
		return en.v0
	}
	return d.wide[en.wide-1].vals[s-1]
}

// set installs slot s of en as pending with value v.
func (d *DMM) set(en *entry, s int, v field.Element) {
	if s == 0 {
		en.v0 = v
	} else {
		if en.wide == 0 {
			d.wide = append(d.wide, wideSlots{})
			en.wide = uint32(len(d.wide))
		}
		w := &d.wide[en.wide-1]
		for len(w.vals) < s {
			w.vals = append(w.vals, 0)
		}
		w.vals[s-1] = v
	}
	if s < 64 {
		en.lo |= 1 << uint(s)
	} else {
		d.wide[en.wide-1].hi.Add(s - 64)
	}
	en.npend++
}

// unpend marks pending slot s of en resolved.
func (d *DMM) unpend(en *entry, s int) {
	if s < 64 {
		en.lo &^= 1 << uint(s)
	} else {
		d.wide[en.wide-1].hi.Remove(s - 64)
	}
	en.npend--
}

// EventClass distinguishes parked event payload shapes for the host.
type EventClass uint8

// Event classes.
const (
	// ClassDirect is a point-to-point protocol message.
	ClassDirect EventClass = iota + 1
	// ClassBroadcast is an RB-accepted broadcast.
	ClassBroadcast
)

// Event is a filterable protocol event. From is the sender (direct) or
// broadcast origin; Ref is the VSS session the event belongs to. The
// remaining fields are opaque to the DMM and interpreted by the host when
// the event is forwarded or released.
type Event struct {
	Class EventClass
	From  sim.ProcID
	Ref   proto.MWID
	Msg   sim.Message // ClassDirect
	Tag   proto.Tag   // ClassBroadcast
	Value []byte      // ClassBroadcast
}

// Action is the filtering decision for an event.
type Action uint8

// Filtering decisions.
const (
	// Forward delivers the event to the protocol now.
	Forward Action = iota + 1
	// Parked holds the event inside the DMM until it stops being delayed.
	Parked
	// Discarded drops the event permanently (sender in D_i).
	Discarded
)

// ShunFunc observes additions to D_i (for metrics and tests).
type ShunFunc func(detected sim.ProcID, session proto.MWID)

// DMM is the per-process detection and message management state. The
// zero maps and slabs are allocated on first use: every service scope's
// stack builds a DMM that usually stays idle.
type DMM struct {
	self  sim.ProcID
	clock int64

	ids  intern.Table[proto.PackedMWID] // packed MWID -> dense session id
	sess []session                      // indexed by session id

	expect    map[uint64]uint32 // expKey -> index into ents
	ents      []entry
	wide      []wideSlots // batched entries' later slots (entry.wide)
	free      []uint32    // recycled ents slots
	tuples    int
	perSender []int32 // live entries per sender

	faulty intern.Bits // D_i, by process id
	// stale indexes, per sender, the completed session slots (markKey)
	// that still have pending expectations from that sender, with their
	// completion stamps. The delay predicate only involves stale slots,
	// which are empty in fault-free runs. Staleness is per slot: a batched
	// session reconstructs slot by slot, and only the tuples of an
	// actually-reconstructed slot may delay a sender — marking the whole
	// batch stale on the first slot's completion would delay honest
	// senders on slots nobody has revealed yet.
	stale map[sim.ProcID]*staleMarks

	slots  intern.Bits // CompleteReconstruct's scratch set
	parked []Event
	// recheck holds the senders whose parked events may have become
	// releasable since the last TakeReady: their earliest stale stamp
	// moved up or vanished, or they joined D_i. Nothing else can release
	// a parked event (a session beginning after the park begins after
	// every stamp already present), so TakeReady re-examines only these
	// senders' events — a lagging sender's backlog is not rescanned on
	// every delivery.
	recheck  intern.Bits
	rechecks bool // recheck is non-empty
	onShun   ShunFunc
	disabled bool

	// Detections counts D_i additions; Resolved counts matched
	// expectations; Contradictions counts mismatched broadcasts.
	Detections     int
	Resolved       int
	Contradictions int
}

// New returns the DMM protocol state for process self.
func New(self sim.ProcID, onShun ShunFunc) *DMM {
	return &DMM{self: self, onShun: onShun}
}

// Self returns the owning process id.
func (d *DMM) Self() sim.ProcID { return d.self }

// tick advances the local logical clock.
func (d *DMM) tick() int64 {
	d.clock++
	return d.clock
}

// session returns the dense id of ref, interning it on first use; ok is
// false when ref does not pack.
func (d *DMM) session(ref proto.MWID) (uint32, bool) {
	k, ok := proto.PackMWID(ref)
	if !ok {
		return 0, false
	}
	id, fresh := d.ids.Intern(k)
	if int(id) >= len(d.sess) {
		d.sess = append(d.sess, session{})
	} else if fresh {
		d.sess[id] = session{}
	}
	return id, id < maxSessions
}

// lookup returns the dense id of ref if it was ever interned.
func (d *DMM) lookup(ref proto.MWID) (uint32, bool) {
	k, ok := proto.PackMWID(ref)
	if !ok {
		return 0, false
	}
	id := d.ids.Lookup(k)
	return id, id < maxSessions
}

// BeginShare stamps the moment i begins the share protocol of a session
// (first local participation). Idempotent.
func (d *DMM) BeginShare(ref proto.MWID) {
	sid, ok := d.session(ref)
	if !ok {
		return
	}
	if s := &d.sess[sid]; s.began == 0 {
		s.began = d.tick()
	}
}

// CompleteReconstruct stamps the moment i completes the reconstruct
// protocol of a session (all slots at once — the session-level entry
// used by hosts that treat the session as one unit). Idempotent.
func (d *DMM) CompleteReconstruct(ref proto.MWID) {
	sid, ok := d.session(ref)
	if !ok {
		return
	}
	// Every slot that still has a pending expectation, plus slot 0
	// (classic single-secret sessions may have resolved all tuples
	// already but must still stamp the →_i completion). The slots are
	// stamped by consecutive ticks, so their order among themselves
	// changes no comparison with any other stamp.
	d.slots.Add(0)
	for _, ei := range d.sess[sid].keys {
		d.eachPending(&d.ents[ei], func(s int) { d.slots.Add(s) })
	}
	d.slots.ForEach(func(s int) { d.completeSlot(sid, uint16(s)) })
	d.slots.Clear()
}

// CompleteReconstructSlot stamps the moment i completes the reconstruct
// protocol of one batch slot of a session. The session's →_i completion
// stamp is taken at the first slot to finish; staleness is tracked per
// slot. Idempotent per slot.
func (d *DMM) CompleteReconstructSlot(ref proto.MWID, slot uint16) {
	if sid, ok := d.session(ref); ok {
		d.completeSlot(sid, slot)
	}
}

func (d *DMM) completeSlot(sid uint32, slot uint16) {
	s := &d.sess[sid]
	if s.doneAt(int(slot)) != 0 {
		return
	}
	stamp := d.tick()
	for len(s.done) <= int(slot) {
		s.done = append(s.done, 0)
	}
	s.done[slot] = stamp
	if s.redone == 0 {
		s.redone = stamp
	}
	// Any expectations still pending in this slot are now stale: the
	// senders' newer sessions must be delayed (DMM step 5).
	for _, ei := range s.keys {
		if en := &d.ents[ei]; d.pending(en, int(slot)) {
			d.addStale(keySender(en.key), sid, slot, stamp)
		}
	}
}

func (d *DMM) addStale(sender sim.ProcID, sid uint32, slot uint16, stamp int64) {
	m, ok := d.stale[sender]
	if !ok {
		if d.stale == nil {
			d.stale = make(map[sim.ProcID]*staleMarks)
		}
		m = &staleMarks{at: make(map[uint64]int64), min: stamp}
		d.stale[sender] = m
	}
	m.at[markKey(sid, slot)] = stamp
	if m.min != 0 && stamp < m.min {
		m.min = stamp
	}
}

// maybeClearStale drops the sender's stale marker for the given slot
// once no pending expectation from them remains in it. It runs only
// when a marker exists (never in fault-free runs) and probes only the
// sender's possible keys in this one session.
func (d *DMM) maybeClearStale(sender sim.ProcID, sid uint32, slot uint16) {
	m, ok := d.stale[sender]
	if !ok {
		return
	}
	mk := markKey(sid, slot)
	stamp, ok := m.at[mk]
	if !ok {
		return
	}
	for tg := 0; tg <= int(d.sess[sid].maxTarget); tg++ {
		for _, src := range [2]Source{SourceACK, SourceDEAL} {
			if ei, ok := d.expect[expKey(sid, src, sender, sim.ProcID(tg))]; ok && d.pending(&d.ents[ei], int(slot)) {
				return
			}
		}
	}
	first := stamp == m.earliest()
	delete(m.at, mk)
	if len(m.at) == 0 {
		delete(d.stale, sender)
	}
	if first {
		// The earliest stamp moved up (or the marks are gone): parked
		// events from this sender may no longer be delayed.
		m.min = 0
		d.markRecheck(sender)
	}
}

// markRecheck queues j's parked events for re-examination by TakeReady.
func (d *DMM) markRecheck(j sim.ProcID) {
	d.recheck.Add(int(j))
	d.rechecks = true
}

// Precedes reports a →_i b: i completed reconstruct of a before beginning
// share of b (paper §2).
func (d *DMM) Precedes(a, b proto.MWID) bool {
	sa, ok := d.lookup(a)
	if !ok || d.sess[sa].redone == 0 {
		return false
	}
	sb, ok := d.lookup(b)
	if !ok || d.sess[sb].began == 0 {
		// b has not begun; processing an event of b now would begin it
		// now, which is after every stamped completion.
		return true
	}
	return d.sess[sa].redone < d.sess[sb].began
}

// IsFaulty reports whether j is in D_i.
func (d *DMM) IsFaulty(j sim.ProcID) bool { return !d.disabled && d.faulty.Has(int(j)) }

// FaultySet returns a copy of D_i in ascending process-id order.
func (d *DMM) FaultySet() []sim.ProcID {
	out := make([]sim.ProcID, 0, d.faulty.Count())
	d.faulty.ForEach(func(j int) { out = append(out, sim.ProcID(j)) })
	return out
}

// markFaulty adds j to D_i (DMM steps 2/3, mismatch branch).
func (d *DMM) markFaulty(j sim.ProcID, session proto.MWID) {
	if !d.faulty.Add(int(j)) {
		return
	}
	d.Detections++
	d.markRecheck(j) // its parked events are now to be discarded
	if d.onShun != nil {
		d.onShun(j, session)
	}
}

// entry returns (creating and indexing if needed) the expectation entry
// for the key, with its session id; ok is false for a key outside the
// representable domain (see the package header).
func (d *DMM) entry(sender, target sim.ProcID, ref proto.MWID, src Source) (ei, sid uint32, ok bool) {
	if (src != SourceACK && src != SourceDEAL) || !proto.WireProc(sender) || !proto.WireProc(target) {
		return 0, 0, false
	}
	if sid, ok = d.session(ref); !ok {
		return 0, 0, false
	}
	k := expKey(sid, src, sender, target)
	if ei, ok := d.expect[k]; ok {
		return ei, sid, true
	}
	if d.expect == nil {
		d.expect = make(map[uint64]uint32)
	}
	if n := len(d.free); n > 0 {
		ei = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		ei = uint32(len(d.ents))
		d.ents = append(d.ents, entry{})
	}
	s := &d.sess[sid]
	en := &d.ents[ei]
	en.key, en.pos = k, uint32(len(s.keys))
	s.keys = append(s.keys, ei)
	if uint16(target) > s.maxTarget {
		s.maxTarget = uint16(target)
	}
	for int(sender) >= len(d.perSender) {
		d.perSender = append(d.perSender, 0)
	}
	d.perSender[sender]++
	d.expect[k] = ei
	return ei, sid, true
}

// install records one pending tuple in entry ei; a slot already pending
// keeps its first value.
func (d *DMM) install(ei, sid uint32, s int, v field.Element) {
	en := &d.ents[ei]
	if d.pending(en, s) {
		return
	}
	d.set(en, s, v)
	d.tuples++
	if stamp := d.sess[sid].doneAt(s); stamp != 0 {
		d.addStale(keySender(en.key), sid, uint16(s), stamp)
	}
}

// Expect installs one expectation tuple (share steps 3 and 7). A
// duplicate (same key and slot, still pending) keeps the first value.
func (d *DMM) Expect(e Expectation) {
	if ei, sid, ok := d.entry(e.Sender, e.Target, e.Session, e.Source); ok {
		d.install(ei, sid, int(e.Slot), e.Value)
	}
}

// ExpectVec installs the expectation tuples of a whole batched dealing
// in one shot: vals[s] is the value Sender must broadcast for slot s
// during reconstruction. Equivalent to K calls of Expect but pays the
// index bookkeeping once — this is on the per-(pair, dealing) hot path
// of share steps 3 and 7, where per-slot map traffic would scale the
// quorum machinery's cost right back up with the batch width.
func (d *DMM) ExpectVec(sender, target sim.ProcID, session proto.MWID, source Source, vals []field.Element) {
	ei, sid, ok := d.entry(sender, target, session, source)
	if !ok {
		return
	}
	for s, v := range vals {
		d.install(ei, sid, s, v)
	}
}

// DropDealExpectations removes every DEAL_i tuple of the given session
// (share step 8: i is not in the moderator's set M̂, so nobody will ever
// broadcast shares of f_i for this session). Only the session's own
// entries are swept — this runs once per MW sub-instance, so a sweep of
// the process-wide expectation set here would be quadratic overall.
func (d *DMM) DropDealExpectations(ref proto.MWID) {
	sid, ok := d.lookup(ref)
	if !ok {
		return
	}
	s := &d.sess[sid]
	for i := 0; i < len(s.keys); {
		if ei := s.keys[i]; keySource(d.ents[ei].key) == SourceDEAL {
			d.removeEntry(ei) // moves the last key into position i
			continue
		}
		i++
	}
}

// removeEntry drops a whole expectation entry (every pending slot) and
// clears any stale markers its slots were holding up.
func (d *DMM) removeEntry(ei uint32) {
	en := &d.ents[ei]
	sid, sender := keySession(en.key), keySender(en.key)
	delete(d.expect, en.key)
	d.tuples -= int(en.npend)
	d.perSender[sender]--
	s := &d.sess[sid]
	last := s.keys[len(s.keys)-1]
	s.keys[en.pos] = last
	d.ents[last].pos = en.pos
	s.keys = s.keys[:len(s.keys)-1]
	if en.npend > 0 && d.stale[sender] != nil {
		d.eachPending(en, func(slot int) { d.maybeClearStale(sender, sid, uint16(slot)) })
	}
	en.key, en.npend, en.lo = 0, 0, 0
	if en.wide != 0 {
		w := &d.wide[en.wide-1]
		w.vals = w.vals[:0]
		w.hi.Clear()
	}
	d.free = append(d.free, ei)
}

// resolveSlot marks one tuple of entry ei resolved and removes the entry
// once nothing in it is pending.
func (d *DMM) resolveSlot(ei uint32, s int) {
	en := &d.ents[ei]
	d.unpend(en, s)
	d.tuples--
	d.maybeClearStale(keySender(en.key), keySession(en.key), uint16(s))
	if en.npend == 0 {
		d.removeEntry(ei)
	}
}

// Disable turns the DMM into a pass-through (no detection, no delaying,
// no discarding) — the ablation mode of experiment E8, which shows that
// without shunning the adversary can keep ruining sessions forever.
func (d *DMM) Disable() { d.disabled = true }

// Reset drops every expectation, session stamp and parked event,
// keeping only the detection counters. Used when the owning stack
// retires (no further events will be filtered).
func (d *DMM) Reset() {
	d.ids.Reset()
	clear(d.sess)
	d.sess = d.sess[:0]
	clear(d.expect)
	clear(d.ents)
	d.ents = d.ents[:0]
	clear(d.wide)
	d.wide = d.wide[:0]
	d.free = d.free[:0]
	d.tuples = 0
	clear(d.perSender)
	d.faulty.Clear()
	clear(d.stale)
	d.parked = nil
	d.recheck.Clear()
	d.rechecks = false
}

// ObserveValueBroadcast runs DMM steps 2 and 3 on a reconstruct-phase
// value broadcast: origin RB-broadcast "f_target(origin) = value" for one
// batch slot of the given session. Matching expectations are resolved; a
// contradiction adds origin to D_i. Runs unconditionally on receipt
// (resolution is DMM bookkeeping, not protocol action, and must not
// itself be delayed).
func (d *DMM) ObserveValueBroadcast(origin sim.ProcID, session proto.MWID, target sim.ProcID, slot uint16, value field.Element) {
	if d.disabled || !proto.WireProc(origin) || !proto.WireProc(target) {
		return
	}
	sid, ok := d.lookup(session)
	if !ok {
		return
	}
	for _, src := range [2]Source{SourceACK, SourceDEAL} {
		ei, ok := d.expect[expKey(sid, src, origin, target)]
		if !ok || !d.pending(&d.ents[ei], int(slot)) {
			continue
		}
		if d.val(&d.ents[ei], int(slot)) == value {
			d.Resolved++
			d.resolveSlot(ei, int(slot))
		} else {
			d.Contradictions++
			d.markFaulty(origin, session)
		}
	}
}

// PendingFrom reports whether any expectation from j is outstanding.
func (d *DMM) PendingFrom(j sim.ProcID) bool {
	return uint64(j) < uint64(len(d.perSender)) && d.perSender[j] > 0
}

// PendingCount returns the number of outstanding expectation tuples
// (per slot — a batched entry counts once per pending slot).
func (d *DMM) PendingCount() int { return d.tuples }

// StaleExpectations returns expectations whose session slot already
// completed reconstruction locally — each is an implicit shun in
// progress (the sender's newer sessions are being delayed indefinitely).
func (d *DMM) StaleExpectations() []Expectation {
	var out []Expectation
	for sid := range d.sess {
		s := &d.sess[sid]
		if s.redone == 0 {
			continue
		}
		ref := d.ids.Key(uint32(sid)).MWID()
		for _, ei := range s.keys {
			en := &d.ents[ei]
			d.eachPending(en, func(slot int) {
				if s.doneAt(slot) == 0 {
					return
				}
				out = append(out, Expectation{
					Sender: keySender(en.key), Target: keyTarget(en.key), Session: ref,
					Slot: uint16(slot), Value: d.val(en, slot), Source: keySource(en.key),
				})
			})
		}
	}
	return out
}

// shouldDelay implements DMM step 5: delay an event of session ref from j
// if some expectation from j belongs to a session that →_i-precedes ref.
// Only sessions that completed reconstruction can precede anything, and
// those are indexed in stale, so the common case is O(1); otherwise the
// earliest stale stamp decides.
func (d *DMM) shouldDelay(j sim.ProcID, ref proto.MWID) bool {
	m := d.stale[j]
	if m == nil {
		return false
	}
	if sid, ok := d.lookup(ref); ok {
		if begin := d.sess[sid].began; begin != 0 {
			return m.earliest() < begin
		}
	}
	return true // ref has not begun: every stamp precedes it
}

// Check decides the fate of an event from `from` in session ref without
// building it: Forward, Discarded, or Parked — the event is delayed and
// the caller must hand it to Park. Hosts build the Event only on that
// last, rare answer.
func (d *DMM) Check(from sim.ProcID, ref proto.MWID) Action {
	if d.disabled {
		return Forward
	}
	if d.faulty.Has(int(from)) {
		return Discarded
	}
	if d.shouldDelay(from, ref) {
		return Parked
	}
	return Forward
}

// Park holds an event Check answered Parked for; it surfaces later
// through TakeReady.
func (d *DMM) Park(ev Event) { d.parked = append(d.parked, ev) }

// Filter is Check followed, on Parked, by Park.
func (d *DMM) Filter(ev Event) Action {
	a := d.Check(ev.From, ev.Ref)
	if a == Parked {
		d.Park(ev)
	}
	return a
}

// TakeReady returns parked events that are no longer delayed, in park
// order. Events from processes meanwhile added to D_i are discarded.
// Hosts call this after every delivery so releases happen promptly; it
// costs nothing until some sender's delay could have lifted (recheck).
func (d *DMM) TakeReady() []Event {
	if !d.rechecks {
		return nil
	}
	var ready []Event
	kept := d.parked[:0]
	for _, ev := range d.parked {
		switch {
		case !d.recheck.Has(int(ev.From)):
			kept = append(kept, ev) // still delayed: nothing changed for it
		case d.faulty.Has(int(ev.From)):
			// drop
		case d.shouldDelay(ev.From, ev.Ref):
			kept = append(kept, ev)
		default:
			ready = append(ready, ev)
		}
	}
	d.parked = kept
	d.recheck.Clear()
	d.rechecks = false
	return ready
}

// ParkedCount returns how many events are currently delayed.
func (d *DMM) ParkedCount() int { return len(d.parked) }

// Sessioned is implemented by direct protocol payloads that belong to a
// VSS session; the host uses it to route them through the DMM filter.
type Sessioned interface {
	SessionRef() proto.MWID
}
