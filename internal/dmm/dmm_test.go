package dmm

import (
	"testing"

	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

func mwid(dealer sim.ProcID, round uint64) proto.MWID {
	return proto.MWID{
		Session: proto.SessionID{Dealer: dealer, Kind: proto.KindMW, Round: round},
		Key:     proto.MWKey{Dealer: dealer, Moderator: 2},
	}
}

func TestPrecedesSemantics(t *testing.T) {
	d := New(1, nil)
	a, b, c := mwid(1, 1), mwid(1, 2), mwid(1, 3)

	d.BeginShare(a)
	d.BeginShare(b)
	if d.Precedes(a, b) {
		t.Error("a precedes b without a completing")
	}
	d.CompleteReconstruct(a)
	if d.Precedes(a, b) {
		t.Error("a precedes b although b began before a completed")
	}
	d.BeginShare(c)
	if !d.Precedes(a, c) {
		t.Error("a must precede c (began after a completed)")
	}
	// An unbegun session counts as beginning "now", i.e. after any
	// completed session.
	unbegun := mwid(9, 9)
	if !d.Precedes(a, unbegun) {
		t.Error("completed session must precede a never-begun session")
	}
	if d.Precedes(b, unbegun) {
		t.Error("incomplete session must not precede anything")
	}
}

func TestStampsIdempotent(t *testing.T) {
	d := New(1, nil)
	a := mwid(1, 1)
	d.BeginShare(a)
	sid, _ := d.lookup(a)
	first := d.sess[sid].began
	d.BeginShare(a)
	if d.sess[sid].began != first {
		t.Error("BeginShare overwrote stamp")
	}
	d.CompleteReconstruct(a)
	rc := d.sess[sid].redone
	d.CompleteReconstruct(a)
	if d.sess[sid].redone != rc {
		t.Error("CompleteReconstruct overwrote stamp")
	}
}

func TestObserveResolvesExpectation(t *testing.T) {
	d := New(1, nil)
	s := mwid(1, 1)
	d.Expect(Expectation{Sender: 3, Target: 2, Session: s, Value: field.New(7), Source: SourceACK})
	if !d.PendingFrom(3) {
		t.Fatal("expectation not pending")
	}
	d.ObserveValueBroadcast(3, s, 2, 0, field.New(7))
	if d.PendingFrom(3) {
		t.Error("matched expectation not removed")
	}
	if d.Resolved != 1 || d.Detections != 0 {
		t.Errorf("resolved=%d detections=%d", d.Resolved, d.Detections)
	}
	if d.IsFaulty(3) {
		t.Error("honest resolver marked faulty")
	}
}

func TestObserveContradictionShuns(t *testing.T) {
	var shunned []sim.ProcID
	d := New(1, func(j sim.ProcID, _ proto.MWID) { shunned = append(shunned, j) })
	s := mwid(1, 1)
	d.Expect(Expectation{Sender: 3, Target: 2, Session: s, Value: field.New(7), Source: SourceDEAL})
	d.ObserveValueBroadcast(3, s, 2, 0, field.New(8))
	if !d.IsFaulty(3) {
		t.Fatal("contradicting sender not added to D_i")
	}
	if len(shunned) != 1 || shunned[0] != 3 {
		t.Errorf("shun callback got %v", shunned)
	}
	if d.Contradictions != 1 {
		t.Errorf("contradictions = %d", d.Contradictions)
	}
	// The tuple stays (never resolved) — per the paper it is "never
	// removed from ACK_i/DEAL_i".
	if !d.PendingFrom(3) {
		t.Error("contradicted expectation removed")
	}
	// Re-observing must not double-count detections.
	d.ObserveValueBroadcast(3, s, 2, 0, field.New(9))
	if d.Detections != 1 {
		t.Errorf("detections = %d, want 1", d.Detections)
	}
}

func TestObserveWithoutExpectationIsNoop(t *testing.T) {
	d := New(1, nil)
	d.ObserveValueBroadcast(3, mwid(1, 1), 2, 0, field.New(7))
	if d.Resolved != 0 || d.Detections != 0 {
		t.Error("observation without expectation had effects")
	}
}

func TestFilterDiscardsFaulty(t *testing.T) {
	d := New(1, nil)
	s := mwid(1, 1)
	d.Expect(Expectation{Sender: 3, Target: 2, Session: s, Value: field.New(7), Source: SourceACK})
	d.ObserveValueBroadcast(3, s, 2, 0, field.New(8)) // 3 becomes faulty
	if got := d.Filter(Event{Class: ClassDirect, From: 3, Ref: mwid(1, 5)}); got != Discarded {
		t.Errorf("action = %v, want Discarded", got)
	}
}

func TestFilterParksDelayedAndReleases(t *testing.T) {
	d := New(1, nil)
	s1 := mwid(3, 1)
	d.BeginShare(s1)
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s1, Value: field.New(5), Source: SourceDEAL})
	d.CompleteReconstruct(s1)

	// Events from 4 in a newer session must be parked.
	s2 := mwid(3, 2)
	if got := d.Filter(Event{Class: ClassDirect, From: 4, Ref: s2}); got != Parked {
		t.Fatalf("action = %v, want Parked", got)
	}
	if d.ParkedCount() != 1 {
		t.Fatalf("parked = %d", d.ParkedCount())
	}
	// Events from other processes flow.
	if got := d.Filter(Event{Class: ClassDirect, From: 2, Ref: s2}); got != Forward {
		t.Errorf("action = %v, want Forward", got)
	}
	// Events from 4 in sessions begun before the completion still flow.
	s0 := mwid(3, 0)
	d2 := New(1, nil)
	d2.BeginShare(s0)
	d2.BeginShare(s1)
	d2.Expect(Expectation{Sender: 4, Target: 1, Session: s1, Value: field.New(5), Source: SourceDEAL})
	d2.CompleteReconstruct(s1)
	if got := d2.Filter(Event{Class: ClassDirect, From: 4, Ref: s0}); got != Forward {
		t.Errorf("concurrent-session action = %v, want Forward", got)
	}

	// Resolving the expectation releases the parked event.
	if ready := d.TakeReady(); len(ready) != 0 {
		t.Fatalf("released early: %d", len(ready))
	}
	d.ObserveValueBroadcast(4, s1, 1, 0, field.New(5))
	ready := d.TakeReady()
	if len(ready) != 1 || ready[0].From != 4 || ready[0].Ref != s2 {
		t.Fatalf("ready = %+v", ready)
	}
	if d.ParkedCount() != 0 {
		t.Error("parked not drained")
	}
}

func TestTakeReadyDropsNewlyFaulty(t *testing.T) {
	d := New(1, nil)
	s1 := mwid(3, 1)
	d.BeginShare(s1)
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s1, Value: field.New(5), Source: SourceDEAL})
	d.CompleteReconstruct(s1)
	if got := d.Filter(Event{Class: ClassDirect, From: 4, Ref: mwid(3, 2)}); got != Parked {
		t.Fatalf("action = %v", got)
	}
	// The pending broadcast arrives with a wrong value: 4 joins D_i and
	// its parked event must be dropped, not delivered.
	d.ObserveValueBroadcast(4, s1, 1, 0, field.New(6))
	if ready := d.TakeReady(); len(ready) != 0 {
		t.Fatalf("released events from faulty process: %v", ready)
	}
	if d.ParkedCount() != 0 {
		t.Error("faulty events still parked")
	}
}

// TestTakeReadyFollowsEarliestStaleStamp pins the release rule with two
// stale sessions from one sender: an event is held exactly while the
// sender's earliest stale completion precedes the event's session, so
// resolving the earliest mark releases sessions begun after it, and
// resolving the last mark releases the rest — including an event parked
// while the cached earliest stamp was unknown.
func TestTakeReadyFollowsEarliestStaleStamp(t *testing.T) {
	sA, sB, mid, late := mwid(3, 1), mwid(3, 2), mwid(3, 3), mwid(3, 4)
	// Sender 4 owes a broadcast in sA and in sB, both completed; mid
	// begins between the two completions.
	setup := func() *DMM {
		d := New(1, nil)
		for _, s := range []proto.MWID{sA, sB} {
			d.BeginShare(s)
			d.Expect(Expectation{Sender: 4, Target: 1, Session: s, Value: field.New(5), Source: SourceACK})
		}
		d.CompleteReconstruct(sA)
		d.BeginShare(mid)
		d.CompleteReconstruct(sB)
		return d
	}

	// Resolving sA leaves sB's mark, completed after mid began: the mid
	// event is released.
	d := setup()
	if got := d.Filter(Event{Class: ClassDirect, From: 4, Ref: mid}); got != Parked {
		t.Fatalf("mid-session action = %v, want Parked", got)
	}
	d.ObserveValueBroadcast(4, sA, 1, 0, field.New(5))
	if ready := d.TakeReady(); len(ready) != 1 || ready[0].Ref != mid {
		t.Fatalf("after resolving the earliest mark, ready = %+v", ready)
	}

	// An event of a not-yet-begun session, parked after sA resolved,
	// stays held by sB's mark even once the session begins, and is
	// released with that mark.
	d = setup()
	d.ObserveValueBroadcast(4, sA, 1, 0, field.New(5))
	if ready := d.TakeReady(); len(ready) != 0 {
		t.Fatalf("nothing parked, ready = %+v", ready)
	}
	if got := d.Filter(Event{Class: ClassDirect, From: 4, Ref: late}); got != Parked {
		t.Fatalf("late-session action = %v, want Parked", got)
	}
	d.BeginShare(late)
	if ready := d.TakeReady(); len(ready) != 0 {
		t.Fatalf("released while sB's mark precedes it: %+v", ready)
	}
	d.ObserveValueBroadcast(4, sB, 1, 0, field.New(5))
	if ready := d.TakeReady(); len(ready) != 1 || ready[0].Ref != late {
		t.Fatalf("after resolving the last mark, ready = %+v", ready)
	}
	if d.ParkedCount() != 0 {
		t.Error("parked not drained")
	}
}

func TestDropDealExpectations(t *testing.T) {
	d := New(1, nil)
	s1, s2 := mwid(3, 1), mwid(3, 2)
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s1, Value: field.New(5), Source: SourceDEAL})
	d.Expect(Expectation{Sender: 5, Target: 1, Session: s1, Value: field.New(6), Source: SourceDEAL})
	d.Expect(Expectation{Sender: 4, Target: 2, Session: s1, Value: field.New(7), Source: SourceACK})
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s2, Value: field.New(8), Source: SourceDEAL})
	d.DropDealExpectations(s1)
	if d.PendingCount() != 2 {
		t.Errorf("pending = %d, want 2 (ACK of s1 and DEAL of s2)", d.PendingCount())
	}
	if !d.PendingFrom(4) {
		t.Error("s2 DEAL from 4 dropped")
	}
	if d.PendingFrom(5) {
		t.Error("DEAL of s1 from 5 not dropped")
	}
}

func TestStaleExpectations(t *testing.T) {
	d := New(1, nil)
	s1, s2 := mwid(3, 1), mwid(3, 2)
	d.BeginShare(s1)
	d.BeginShare(s2)
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s1, Value: field.New(5), Source: SourceDEAL})
	d.Expect(Expectation{Sender: 5, Target: 1, Session: s2, Value: field.New(6), Source: SourceDEAL})
	d.CompleteReconstruct(s1)
	stale := d.StaleExpectations()
	if len(stale) != 1 || stale[0].Sender != 4 {
		t.Errorf("stale = %v", stale)
	}
}

func TestExpectDuplicateKeepsFirst(t *testing.T) {
	d := New(1, nil)
	s := mwid(3, 1)
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s, Value: field.New(5), Source: SourceDEAL})
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s, Value: field.New(9), Source: SourceDEAL})
	if d.PendingCount() != 1 {
		t.Fatalf("pending = %d", d.PendingCount())
	}
	// Resolution must match the first value.
	d.ObserveValueBroadcast(4, s, 1, 0, field.New(5))
	if d.PendingFrom(4) {
		t.Error("first-value resolution failed")
	}
}

func TestFaultySetCopy(t *testing.T) {
	d := New(1, nil)
	s := mwid(3, 1)
	// Detected in the order 4, 2, 5: FaultySet lists them sorted.
	for _, j := range []sim.ProcID{4, 2, 5} {
		d.Expect(Expectation{Sender: j, Target: 1, Session: s, Value: field.New(5), Source: SourceDEAL})
		d.ObserveValueBroadcast(j, s, 1, 0, field.New(6))
	}
	set := d.FaultySet()
	if len(set) != 3 || set[0] != 2 || set[1] != 4 || set[2] != 5 {
		t.Errorf("faulty set = %v, want [2 4 5]", set)
	}
	set[0] = 9
	if !d.IsFaulty(2) || d.IsFaulty(9) {
		t.Error("FaultySet aliases D_i")
	}
}

func TestACKAndDEALBothMatchSameBroadcast(t *testing.T) {
	// The dealer can hold an ACK tuple and a DEAL tuple for the same
	// (sender, target, session); one broadcast resolves both.
	d := New(1, nil)
	s := mwid(1, 1)
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s, Value: field.New(5), Source: SourceACK})
	d.Expect(Expectation{Sender: 4, Target: 1, Session: s, Value: field.New(5), Source: SourceDEAL})
	d.ObserveValueBroadcast(4, s, 1, 0, field.New(5))
	if d.PendingCount() != 0 {
		t.Errorf("pending = %d, want 0", d.PendingCount())
	}
	if d.Resolved != 2 {
		t.Errorf("resolved = %d, want 2", d.Resolved)
	}
}
