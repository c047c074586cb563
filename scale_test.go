package svssba_test

import (
	"testing"
	"time"

	"svssba"
)

// TestAgreementN10 is the n=10/t=3 smoke test the interned-tag dense-
// state port (PR 5) opened up: one full-stack agreement run at the
// scale the fast-ABA literature benchmarks against.
//
// Reality check on cost: one n10 coin round alone is ~125M deliveries
// (per-round traffic grows steeply — n² concurrent SVSS sessions ×
// n(n−1) MW sub-instances, 2n(n−1) when this was measured, each echoing
// through n²-message reliable broadcasts), so the complete run is ~129M deliveries ≈ 7 minutes of
// single-core work on the dense hot path (measured with that port and
// recorded in CHANGES.md; the earlier map-based path was ~1.3× slower per
// delivery at this scale on top). The test therefore skips under -short, and under a default
// `go test` budget it skips unless enough deadline headroom remains —
// run it deliberately with
//
//	make n10    # go test -run TestAgreementN10 -timeout 90m .
func TestAgreementN10(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10/t=3 agreement is a multi-minute deep run; skipped under -short")
	}
	const headroom = 20 * time.Minute
	if dl, ok := t.Deadline(); ok && time.Until(dl) < headroom {
		t.Skipf("n=10/t=3 agreement needs ~%v of budget (have %v); run via make n10", headroom, time.Until(dl).Round(time.Second))
	}
	inputs := make([]int, 10)
	for i := range inputs {
		inputs[i] = 1
	}
	res, err := svssba.Run(svssba.Config{N: 10, T: 3, Seed: 1, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("n10 run exhausted %d steps (rounds=%d)", res.Steps, res.MaxRound)
	}
	if !res.AllDecided || !res.Agreed {
		t.Fatalf("no agreement: decided=%v agreed=%v decisions=%v", res.AllDecided, res.Agreed, res.Decisions)
	}
	if res.Value != 1 {
		t.Fatalf("validity violated: unanimous input 1, decided %d", res.Value)
	}
	t.Logf("n10/t3 agreement: steps=%d rounds=%d msgs=%d", res.Steps, res.MaxRound, res.Messages)
}

// TestAgreementN13 is the n=13/t=4 smoke test that burst coalescing
// opened up: bundling the MW layer's concurrent broadcasts into shared
// RB sessions and packing per-destination direct traffic is what makes
// it feasible, since with one message per logical payload a single n13
// coin round alone (~450M deliveries by extrapolation) would dwarf the
// n10 run that already needs minutes. Measured (recorded in CHANGES.md with the wire-v2
// pass): ~8.96M deliveries over 3 coin rounds, ~41 minutes single-core.
// Deep run; skipped under -short and under a default `go test` budget —
// run deliberately with
//
//	make n13    # go test -run TestAgreementN13 -timeout 90m .
func TestAgreementN13(t *testing.T) {
	if testing.Short() {
		t.Skip("n=13/t=4 agreement is a deep run; skipped under -short")
	}
	const headroom = 60 * time.Minute
	if dl, ok := t.Deadline(); ok && time.Until(dl) < headroom {
		t.Skipf("n=13/t=4 agreement needs ~%v of budget (have %v); run via make n13", headroom, time.Until(dl).Round(time.Second))
	}
	inputs := make([]int, 13)
	for i := range inputs {
		inputs[i] = 1
	}
	res, err := svssba.Run(svssba.Config{N: 13, T: 4, Seed: 1, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("n13 run exhausted %d steps (rounds=%d)", res.Steps, res.MaxRound)
	}
	if !res.AllDecided || !res.Agreed {
		t.Fatalf("no agreement: decided=%v agreed=%v decisions=%v", res.AllDecided, res.Agreed, res.Decisions)
	}
	if res.Value != 1 {
		t.Fatalf("validity violated: unanimous input 1, decided %d", res.Value)
	}
	t.Logf("n13/t4 agreement: steps=%d rounds=%d msgs=%d coinrounds=%d per-coin=%d",
		res.Steps, res.MaxRound, res.Messages, res.CoinRounds, perCoin(res))
}

// perCoin is the deliveries-per-coin-round figure of a finished run.
func perCoin(res *svssba.Result) uint64 {
	if res.CoinRounds == 0 {
		return 0
	}
	return uint64(res.Steps) / res.CoinRounds
}
