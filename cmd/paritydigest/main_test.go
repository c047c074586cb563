package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestDigestMatchesGolden pins the quick-matrix digest byte-for-byte
// against testdata/parity.txt. A mismatch means a change that claimed
// to be representation-only altered protocol decisions, schedules or
// logical stats (regenerate deliberately with `go run ./cmd/paritydigest
// > testdata/parity.txt` and explain the change in the PR). The subtest
// keeps the name of the wire whose digest this golden has always been.
func TestDigestMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-matrix digest (seconds); run without -short")
	}
	t.Run("v2", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("testdata", "parity.txt"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		emit(&got, false)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("digest diverged from testdata/parity.txt\ngot:\n%s", firstDiff(got.Bytes(), want))
		}
	})
}

// firstDiff renders the first differing line pair for a readable report.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + string(g[i]) + "\n  want: " + string(w[i])
		}
	}
	return "line counts differ: got " + strconv.Itoa(len(g)) + ", want " + strconv.Itoa(len(w))
}
