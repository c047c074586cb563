package main

import (
	"testing"
	"time"
)

func TestOpenLoopDueTimesNeverSlide(t *testing.T) {
	origin := time.Unix(1000, 0)
	o := newOpenLoop(origin, 5) // one every 200 ms
	if o.period != 200*time.Millisecond {
		t.Fatalf("period = %v, want 200ms", o.period)
	}

	// Nothing is due before the origin.
	if _, _, ok := o.pop(origin.Add(-time.Millisecond)); ok {
		t.Fatal("popped a submission before the origin")
	}
	// Submission 0 is due at the origin itself.
	k, due, ok := o.pop(origin)
	if !ok || k != 0 || !due.Equal(origin) {
		t.Fatalf("first pop = (%d, %v, %v)", k, due, ok)
	}
	if _, _, ok := o.pop(origin.Add(199 * time.Millisecond)); ok {
		t.Fatal("popped submission 1 before it was due")
	}
	if w := o.wait(origin.Add(150 * time.Millisecond)); w != 50*time.Millisecond {
		t.Fatalf("wait = %v, want 50ms", w)
	}

	// The generator stalls for a second: submissions 1..5 are overdue.
	// Each pops with its own scheduled due time, so the lateness a stall
	// causes is charged to every submission it delayed.
	now := origin.Add(time.Second)
	if w := o.wait(now); w != 0 {
		t.Fatalf("wait while overdue = %v, want 0", w)
	}
	for want := 1; want <= 5; want++ {
		k, due, ok := o.pop(now)
		if !ok || k != want {
			t.Fatalf("catch-up pop %d = (%d, %v)", want, k, ok)
		}
		if wantDue := origin.Add(time.Duration(want) * 200 * time.Millisecond); !due.Equal(wantDue) {
			t.Fatalf("submission %d due %v, want %v", want, due, wantDue)
		}
		if late := now.Sub(due); late != time.Duration(5-want)*200*time.Millisecond {
			t.Fatalf("submission %d lateness %v", want, late)
		}
	}
	if _, _, ok := o.pop(now); ok {
		t.Fatal("popped submission 6 early")
	}
	// After the stall the schedule continues from the origin, not from
	// when the generator woke up.
	if got, want := o.due(6), origin.Add(1200*time.Millisecond); !got.Equal(want) {
		t.Fatalf("submission 6 due %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	outer := l.begin("outer")
	inner := l.begin("inner")
	inner.end()
	outer.end()
	if len(l.spans) != 2 || l.spans[1].Parent != l.spans[0].ID || l.spans[0].Parent != 0 {
		t.Fatalf("span parents wrong: %+v", l.spans)
	}
	// Fix the clock readings so the arithmetic is exact.
	l.spans[0].StartUs, l.spans[0].EndUs = 0, 100
	l.spans[1].StartUs, l.spans[1].EndUs = 20, 50
	var got spanSummary
	for _, s := range l.summarize() {
		if s.Name == "outer" {
			got = s
		}
	}
	if got.TotalUs != 100 || got.SelfUs != 70 || got.Count != 1 {
		t.Fatalf("outer summary = %+v, want total 100 self 70", got)
	}
	// A nil log is the untraced path: every call must be a no-op.
	var none *spanLog
	none.begin("x").end()
	if none.summarize() != nil || none.medianUs("x") != 0 {
		t.Fatal("nil span log recorded something")
	}
}
