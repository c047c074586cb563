package dmm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"svssba/internal/field"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// TestDenseMatchesOracle drives the dense DMM and the pre-dense oracle
// (oracle_test.go) with the same seeded random operation sequences and
// requires identical observable behaviour after every operation: every
// Filter action and the TakeReady order, the shun callbacks, the
// detection counters, PendingCount, ParkedCount, PendingFrom, IsFaulty,
// FaultySet, Precedes over every pair of sessions, the Check decision
// for every (process, session) pair, and the sorted StaleExpectations. The sequences mix batched slots, contradicting
// values, out-of-range targets and senders, and step-8 drops and
// (per-slot) completions in any order.
func TestDenseMatchesOracle(t *testing.T) {
	ops := 0
	for _, n := range []int{4, 7} {
		for seed := int64(1); seed <= 4; seed++ {
			ops += runDifferential(t, n, seed, 3000, false)
		}
	}
	if ops < 10000 {
		t.Fatalf("only %d operations compared", ops)
	}
}

// TestDenseMatchesOracleWideSlots is TestDenseMatchesOracle with batched
// dealings of up to 140 slots and single-slot operations spread over
// slots 0–132, so the entries' spilled slots (1 and up, pending bits 64
// and up) are installed, resolved, completed and recycled.
func TestDenseMatchesOracleWideSlots(t *testing.T) {
	for _, n := range []int{4, 7} {
		for seed := int64(1); seed <= 2; seed++ {
			runDifferential(t, n, seed, 1000, true)
		}
	}
}

// shun records one onShun callback.
type shun struct {
	j   sim.ProcID
	ref proto.MWID
}

func runDifferential(t *testing.T, n int, seed int64, steps int, wide bool) int {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	var gotShuns, wantShuns []shun
	d := New(1, func(j sim.ProcID, ref proto.MWID) { gotShuns = append(gotShuns, shun{j, ref}) })
	o := newOracle(1, func(j sim.ProcID, ref proto.MWID) { wantShuns = append(wantShuns, shun{j, ref}) })

	// A small pool of sessions so operations collide: MW sub-instances
	// and SVSS-level refs (zero key), some of which never begin.
	refs := make([]proto.MWID, 10)
	for i := range refs {
		sid := proto.SessionID{
			Dealer: sim.ProcID(1 + rnd.Intn(n)),
			Kind:   proto.KindCoin,
			Round:  uint64(rnd.Intn(3)),
			Index:  uint32(rnd.Intn(2)),
		}
		refs[i] = proto.MWID{Session: sid}
		if i%4 != 0 {
			refs[i].Key = proto.MWKey{Dealer: sim.ProcID(1 + rnd.Intn(n)), Moderator: sim.ProcID(1 + rnd.Intn(n)), Slot: uint8(rnd.Intn(2))}
		}
	}
	ref := func() proto.MWID { return refs[rnd.Intn(len(refs))] }
	proc := func() sim.ProcID { return sim.ProcID(rnd.Intn(n + 2)) } // 0 and n+1 are out of range
	val := func() field.Element { return field.New(uint64(rnd.Intn(3))) }
	src := func() Source { return Source(SourceACK + Source(rnd.Intn(2))) }
	// slot draws one of k slots: 0..k-1, or multiples of 33 when wide.
	slot := func(k int) uint16 {
		if wide {
			return uint16(33 * rnd.Intn(k))
		}
		return uint16(rnd.Intn(k))
	}
	width := 4
	if wide {
		width = 140
	}

	// installed remembers what was expected, so most observations hit a
	// live tuple (and most of those match it) instead of missing.
	var installed []Expectation
	var seq uint64
	for step := 0; step < steps; step++ {
		var op string
		switch r := rnd.Intn(100); {
		case r < 8:
			x := ref()
			op = fmt.Sprintf("BeginShare(%v)", x)
			d.BeginShare(x)
			o.BeginShare(x)
		case r < 28:
			e := Expectation{Sender: proc(), Target: proc(), Session: ref(), Slot: slot(4), Value: val(), Source: src()}
			op = fmt.Sprintf("Expect(%v)", e)
			installed = append(installed, e)
			d.Expect(e)
			o.Expect(e)
		case r < 40:
			s, tg, x, so := proc(), proc(), ref(), src()
			vals := make([]field.Element, 1+rnd.Intn(width))
			for i := range vals {
				vals[i] = val()
			}
			op = fmt.Sprintf("ExpectVec(%d,%d,%v,%d,%v)", s, tg, x, so, vals)
			for slot, v := range vals {
				installed = append(installed, Expectation{Sender: s, Target: tg, Session: x, Slot: uint16(slot), Value: v, Source: so})
			}
			d.ExpectVec(s, tg, x, so, vals)
			o.ExpectVec(s, tg, x, so, vals)
		case r < 62:
			origin, x, tg, slot, v := proc(), ref(), proc(), slot(5), val()
			if len(installed) > 0 && rnd.Intn(4) != 0 {
				e := installed[rnd.Intn(len(installed))]
				origin, x, tg, slot, v = e.Sender, e.Session, e.Target, e.Slot, e.Value
				if rnd.Intn(20) == 0 {
					v = v.Add(field.New(1)) // a contradiction
				}
			}
			op = fmt.Sprintf("Observe(%d,%v,%d,%d,%v)", origin, x, tg, slot, v)
			d.ObserveValueBroadcast(origin, x, tg, slot, v)
			o.ObserveValueBroadcast(origin, x, tg, slot, v)
		case r < 67:
			x := ref()
			op = fmt.Sprintf("DropDeal(%v)", x)
			d.DropDealExpectations(x)
			o.DropDealExpectations(x)
		case r < 71:
			x := ref()
			op = fmt.Sprintf("CompleteReconstruct(%v)", x)
			d.CompleteReconstruct(x)
			o.CompleteReconstruct(x)
		case r < 77:
			x, slot := ref(), slot(5)
			op = fmt.Sprintf("CompleteReconstructSlot(%v,%d)", x, slot)
			d.CompleteReconstructSlot(x, slot)
			o.CompleteReconstructSlot(x, slot)
		case r < 92:
			seq++
			ev := Event{Class: ClassDirect, From: proc(), Ref: ref(), Msg: sim.Message{Seq: seq}}
			op = fmt.Sprintf("Filter(from %d, %v)", ev.From, ev.Ref)
			if got, want := d.Filter(ev), o.Filter(ev); got != want {
				t.Fatalf("n=%d seed=%d step %d %s: action %d, oracle %d", n, seed, step, op, got, want)
			}
		case r < 99:
			op = "TakeReady"
			if got, want := readySeqs(d.TakeReady()), readySeqs(o.TakeReady()); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d seed=%d step %d: TakeReady %v, oracle %v", n, seed, step, got, want)
			}
		default:
			op = "Reset"
			installed = installed[:0]
			d.Reset()
			o.Reset()
		}
		if msg := compareDMM(d, o, refs, n); msg != "" {
			t.Fatalf("n=%d seed=%d step %d after %s: %s", n, seed, step, op, msg)
		}
		if !reflect.DeepEqual(gotShuns, wantShuns) {
			t.Fatalf("n=%d seed=%d step %d after %s: shuns %v, oracle %v", n, seed, step, op, gotShuns, wantShuns)
		}
	}
	return steps
}

// oracleCheck is the oracle's Filter decision without the park.
func oracleCheck(o *oracle, j sim.ProcID, ref proto.MWID) Action {
	switch {
	case o.disabled:
		return Forward
	case o.faulty[j]:
		return Discarded
	case o.shouldDelay(j, ref):
		return Parked
	}
	return Forward
}

func readySeqs(evs []Event) []uint64 {
	var out []uint64
	for _, ev := range evs {
		out = append(out, ev.Msg.Seq)
	}
	return out
}

// compareDMM returns "" when every observable of d matches o.
func compareDMM(d *DMM, o *oracle, refs []proto.MWID, n int) string {
	if d.Detections != o.Detections || d.Resolved != o.Resolved || d.Contradictions != o.Contradictions {
		return fmt.Sprintf("counters %d/%d/%d, oracle %d/%d/%d",
			d.Detections, d.Resolved, d.Contradictions, o.Detections, o.Resolved, o.Contradictions)
	}
	if d.PendingCount() != o.PendingCount() || d.ParkedCount() != o.ParkedCount() {
		return fmt.Sprintf("pending/parked %d/%d, oracle %d/%d", d.PendingCount(), d.ParkedCount(), o.PendingCount(), o.ParkedCount())
	}
	for j := sim.ProcID(0); int(j) <= n+1; j++ {
		if d.PendingFrom(j) != o.PendingFrom(j) || d.IsFaulty(j) != o.IsFaulty(j) {
			return fmt.Sprintf("process %d: pending %v faulty %v, oracle %v %v", j, d.PendingFrom(j), d.IsFaulty(j), o.PendingFrom(j), o.IsFaulty(j))
		}
		// The decision Filter would take for every (sender, session),
		// without parking anything: makes the stale markers observable.
		for _, x := range refs {
			if got, want := d.Check(j, x), oracleCheck(o, j, x); got != want {
				return fmt.Sprintf("Check(%d, %v) = %d, oracle %d", j, x, got, want)
			}
		}
	}
	want := o.FaultySet()
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if got := d.FaultySet(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("FaultySet %v, oracle (sorted) %v", got, want)
	}
	for _, a := range refs {
		for _, b := range refs {
			if d.Precedes(a, b) != o.Precedes(a, b) {
				return fmt.Sprintf("Precedes(%v, %v) = %v, oracle %v", a, b, d.Precedes(a, b), o.Precedes(a, b))
			}
		}
	}
	if got, want := sortedStale(d.StaleExpectations()), sortedStale(o.StaleExpectations()); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("StaleExpectations %v, oracle %v", got, want)
	}
	return ""
}

func sortedStale(es []Expectation) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.String())
	}
	sort.Strings(out)
	return out
}
