package exp_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"svssba/internal/exp"
	"svssba/internal/trace"
)

var quick = exp.Scale{Quick: true}

// TestE7TableShape runs the deterministic Example 1 replay and checks
// every row observes its expectation.
func TestE7TableShape(t *testing.T) {
	tb := exp.E7(quick)
	out := tb.String()
	if tb.Len() != 5 {
		t.Fatalf("rows = %d, want 5\n%s", tb.Len(), out)
	}
	for _, want := range []string{"42", "10042", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
	// Expected and observed columns must match on the headline rows.
	if strings.Count(out, "false") != 2 { // one expected + one observed "false"
		t.Errorf("pre-completion detection mismatch:\n%s", out)
	}
}

// column returns the index of the named header column, failing the
// test if the table has none.
func column(t *testing.T, tb *trace.Table, name string) int {
	t.Helper()
	i := slices.Index(tb.Header, name)
	if i < 0 {
		t.Fatalf("no %q column in\n%s", name, tb)
	}
	return i
}

// cell parses an integer cell, failing the test on anything else.
func cell(t *testing.T, tb *trace.Table, row []string, col int) int {
	t.Helper()
	v, err := strconv.Atoi(row[col])
	if err != nil {
		t.Fatalf("%s %q is not an integer in\n%s", tb.Header[col], row[col], tb)
	}
	return v
}

// TestE4BoundHolds re-runs the shun-bound experiment and asserts the
// cumulative pair count never exceeds t(n−t), at both widths.
func TestE4BoundHolds(t *testing.T) {
	tb := exp.E4(quick)
	if tb.Len() == 0 {
		t.Fatal("empty table")
	}
	width, pairs, bound := column(t, tb, "width"), column(t, tb, "cum_shun_pairs"), column(t, tb, "bound_t(n-t)")
	widths := map[int]int{}
	for _, row := range tb.Rows() {
		widths[cell(t, tb, row, width)]++
		if got, limit := cell(t, tb, row, pairs), cell(t, tb, row, bound); got > limit {
			t.Errorf("shun pairs %d exceed the bound %d: %v", got, limit, row)
		}
		if slices.Contains(row, "stuck") {
			t.Errorf("session runner stuck: %v", row)
		}
	}
	if widths[1] == 0 || widths[4] == 0 {
		t.Errorf("rows per width %v, want both 1 and 4\n%s", widths, tb)
	}
}

// TestE8AblationContrast asserts that, at each width, the DMM-off arm
// ruins strictly more sessions than the DMM-on arm.
func TestE8AblationContrast(t *testing.T) {
	tb := exp.E8(quick)
	width, dmm, ruined := column(t, tb, "width"), column(t, tb, "dmm"), column(t, tb, "ruined_sessions")
	got := map[string]int{}
	for _, row := range tb.Rows() {
		got[row[width]+"/"+row[dmm]] = cell(t, tb, row, ruined)
	}
	for _, w := range []string{"1", "4"} {
		on, okOn := got[w+"/on"]
		off, okOff := got[w+"/off"]
		if !okOn || !okOff {
			t.Fatalf("width %s: rows missing:\n%s", w, tb)
		}
		if on >= off {
			t.Errorf("width %s: ablation contrast missing: on=%d off=%d", w, on, off)
		}
	}
}
