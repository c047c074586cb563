package intern

import (
	"testing"

	"svssba/internal/sim"
)

func TestTableInternLookupRelease(t *testing.T) {
	var tb Table[string]
	if got := tb.Lookup("a"); got != NoID {
		t.Fatalf("Lookup on empty table = %d, want NoID", got)
	}
	a, fresh := tb.Intern("a")
	if !fresh || a != 0 {
		t.Fatalf("Intern(a) = (%d,%v), want (0,true)", a, fresh)
	}
	b, fresh := tb.Intern("b")
	if !fresh || b != 1 {
		t.Fatalf("Intern(b) = (%d,%v), want (1,true)", b, fresh)
	}
	if id, fresh := tb.Intern("a"); fresh || id != a {
		t.Fatalf("re-Intern(a) = (%d,%v), want (%d,false)", id, fresh, a)
	}
	if tb.Len() != 2 || tb.HighWater() != 2 {
		t.Fatalf("Len=%d HighWater=%d, want 2,2", tb.Len(), tb.HighWater())
	}
	if tb.Key(a) != "a" || tb.Key(b) != "b" {
		t.Fatalf("Key round trip failed")
	}

	tb.Release("a")
	if tb.Len() != 1 {
		t.Fatalf("Len after release = %d, want 1", tb.Len())
	}
	if got := tb.Lookup("a"); got != NoID {
		t.Fatalf("Lookup(released) = %d, want NoID", got)
	}
	// The freed id is recycled before the id space grows.
	c, fresh := tb.Intern("c")
	if !fresh || c != a {
		t.Fatalf("Intern(c) = (%d,%v), want recycled (%d,true)", c, fresh, a)
	}
	if tb.HighWater() != 2 {
		t.Fatalf("HighWater after recycle = %d, want 2", tb.HighWater())
	}
}

func TestTableZeroKeyNotPhantom(t *testing.T) {
	// The one-slot cache must not invent an id for the zero key.
	var tb Table[int]
	if _, fresh := tb.Intern(7); !fresh {
		t.Fatal("Intern(7) not fresh")
	}
	if got := tb.Lookup(0); got != NoID {
		t.Fatalf("Lookup(zero key) = %d, want NoID", got)
	}
}

func TestTableReset(t *testing.T) {
	var tb Table[string]
	tb.Intern("a")
	tb.Intern("b")
	tb.Release("a")
	tb.Reset()
	if tb.Len() != 0 || tb.HighWater() != 0 {
		t.Fatalf("after Reset: Len=%d HighWater=%d, want 0,0", tb.Len(), tb.HighWater())
	}
	if got := tb.Lookup("b"); got != NoID {
		t.Fatalf("Lookup(b) after Reset = %d, want NoID", got)
	}
	if id, fresh := tb.Intern("z"); !fresh || id != 0 {
		t.Fatalf("Intern after Reset = (%d,%v), want (0,true)", id, fresh)
	}
}

func TestBitsInlineAndSpill(t *testing.T) {
	var b Bits
	for _, i := range []int{0, 1, 63, 64, 65, 200} {
		if b.Has(i) {
			t.Fatalf("Has(%d) on empty set", i)
		}
		if !b.Add(i) {
			t.Fatalf("Add(%d) not fresh", i)
		}
		if b.Add(i) {
			t.Fatalf("re-Add(%d) fresh", i)
		}
		if !b.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if b.Has(-1) || b.Has(1000) {
		t.Fatal("phantom members")
	}
	if got := b.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 1, 63, 64, 65, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
	b.Clear()
	if b.Count() != 0 || b.Has(200) {
		t.Fatal("Clear left members behind")
	}
}

func TestProcSet(t *testing.T) {
	var s ProcSet
	for _, p := range []sim.ProcID{3, 1, 7, 70} {
		if !s.Add(p) {
			t.Fatalf("Add(%d) not fresh", p)
		}
	}
	if s.Add(3) {
		t.Fatal("duplicate Add reported fresh")
	}
	if got := s.Slice(); len(got) != 4 || got[0] != 1 || got[1] != 3 || got[2] != 7 || got[3] != 70 {
		t.Fatalf("Slice = %v, want [1 3 7 70]", got)
	}
	if !s.ContainsAll([]sim.ProcID{1, 7}) || s.ContainsAll([]sim.ProcID{1, 2}) {
		t.Fatal("ContainsAll wrong")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
}

func TestValCounts(t *testing.T) {
	var c ValCounts
	buf := []byte("v1")
	if got := c.Incr(buf); got != 1 {
		t.Fatalf("first Incr = %d", got)
	}
	// The stored value must be a copy, not a view of the caller's buffer.
	buf[0] = 'x'
	if got := c.Incr([]byte("v1")); got != 2 {
		t.Fatalf("Incr after caller mutation = %d, want 2", got)
	}
	if got := c.Incr([]byte("xx")); got != 1 {
		t.Fatalf("Incr(xx) = %d, want 1 (distinct value)", got)
	}
	// Push past the inline threshold into the spill map.
	vals := []string{"a", "b", "c", "d", "e"}
	for _, v := range vals {
		c.Incr([]byte(v))
	}
	for _, v := range vals {
		if got := c.Incr([]byte(v)); got != 2 {
			t.Fatalf("Incr(%s) = %d, want 2", v, got)
		}
	}
	if got := c.Incr([]byte("v1")); got != 3 {
		t.Fatalf("Incr(v1) = %d, want 3", got)
	}
	c.Reset()
	if got := c.Incr([]byte("v1")); got != 1 {
		t.Fatalf("Incr after Reset = %d, want 1", got)
	}
}

// TestValCountsStored: Stored hands out the counter's own copy of an
// inline value, with no allocation, and a fresh copy of a spilled one;
// neither aliases the caller's buffer.
func TestValCountsStored(t *testing.T) {
	var c ValCounts
	for _, v := range []string{"a", "b", "c", "d"} {
		c.Incr([]byte(v))
	}
	buf := []byte("a")
	got := c.Stored(buf)
	if string(got) != "a" || &got[0] == &buf[0] || &got[0] != &c.vals[0][0] {
		t.Fatalf("Stored(a) = %q, want the counter's copy", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Stored(buf) }); allocs != 0 {
		t.Errorf("Stored of an inline value allocates %v times, want 0", allocs)
	}
	spilled := []byte("d")
	if got := c.Stored(spilled); string(got) != "d" || &got[0] == &spilled[0] {
		t.Fatalf("Stored(d) = %q, want a copy of the spilled value", got)
	}
}
