package svssba_test

import (
	"testing"

	"svssba"
	"svssba/internal/paritycells"
)

// The tests in this file once compared two wire variants run for run;
// their names are kept, and each now checks the protocol properties on
// the one wire every run uses.

// TestWireVariantEquivalence: across the full parity-cell matrix
// (schedulers × fault behaviours × scales), every run reaches agreement
// among honest processes, and where the protocol pins the outcome —
// unanimous honest inputs force the decision by validity — the decided
// value is that input. The golden digest pins each cell's exact
// decisions; this test states why they are right.
func TestWireVariantEquivalence(t *testing.T) {
	for _, c := range paritycells.Agreement(false) {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			res, err := svssba.Run(c.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut {
				t.Fatalf("timed out after %d steps", res.Steps)
			}
			if !res.AllDecided || !res.Agreed {
				t.Fatalf("decided=%v agreed=%v decisions=%v", res.AllDecided, res.Agreed, res.Decisions)
			}

			unanimous, first := len(c.Cfg.Inputs) > 0, -1 // empty: alternating 0/1 inputs
			for i, in := range c.Cfg.Inputs {
				if faultyProc(c.Cfg.Faults, i+1) {
					continue
				}
				if first == -1 {
					first = in
				} else if in != first {
					unanimous = false
				}
			}
			if unanimous && first != -1 && res.Value != first {
				t.Fatalf("validity: unanimous input %d, decided %d", first, res.Value)
			}
		})
	}
}

// TestWireVariantSVSSEquivalence: standalone SVSS sessions reconstruct
// the dealt secret at every honest process (⊥ only when a process is
// faulty), at n = 4 with and without a lying process and at n = 7.
func TestWireVariantSVSSEquivalence(t *testing.T) {
	cases := []svssba.SVSSConfig{
		{N: 4, Seed: 1, Secret: 7},
		{N: 4, Seed: 2, Secret: 9, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultRValLie}}},
		{N: 7, T: 2, Seed: 3, Secret: 123456},
	}
	for _, cfg := range cases {
		res, err := svssba.RunSVSS(cfg)
		if err != nil {
			t.Fatalf("n=%d seed %d: %v", cfg.N, cfg.Seed, err)
		}
		if res.TimedOut {
			t.Fatalf("n=%d seed %d: timed out", cfg.N, cfg.Seed)
		}
		for pid, out := range res.Outputs {
			if faultyProc(cfg.Faults, pid) {
				continue
			}
			if out.Bottom && len(cfg.Faults) == 0 {
				t.Errorf("n=%d seed %d: honest process %d output ⊥ with no faults", cfg.N, cfg.Seed, pid)
			}
			if !out.Bottom && out.Value != cfg.Secret {
				t.Errorf("n=%d seed %d: process %d reconstructed %d, want %d",
					cfg.N, cfg.Seed, pid, out.Value, cfg.Secret)
			}
		}
	}
}

// TestWireVariantCoinEquivalence: consecutive coin rounds each produce
// one agreed bit.
func TestWireVariantCoinEquivalence(t *testing.T) {
	res, err := svssba.RunCoin(svssba.CoinConfig{N: 4, Seed: 1, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if len(res.RoundResults) != 2 {
		t.Fatalf("%d rounds completed, want 2", len(res.RoundResults))
	}
	for i, rr := range res.RoundResults {
		if !rr.Agreed {
			t.Errorf("round %d: coin outputs disagree: %v", i+1, rr.Bits)
		}
	}
}

func faultyProc(faults []svssba.Fault, pid int) bool {
	for _, f := range faults {
		if f.Proc == pid {
			return true
		}
	}
	return false
}
