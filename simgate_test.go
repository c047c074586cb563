package svssba

import "testing"

// TestSimCoinCountsRepeat pins the exact message and byte counts of one
// n=7 shunning-coin round — the benchmark's sim_n7 operation — for a
// fault-free and a Byzantine cell. The simulator is a pure function of
// its seed, so any change to what the engines send, in what order or in
// what shape moves these numbers; a representation change (how state is
// keyed, stored or allocated) must leave them alone. Together with the
// pinned parity digests this is what "same program, cheaper" means.
func TestSimCoinCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two n=7 coin rounds; skipped in -short")
	}
	cases := []struct {
		name            string
		seed            int64
		faults          []Fault
		messages, bytes int64
		shuns           int
	}{
		{name: "fault-free", seed: 1, messages: 945147, bytes: 188398815},
		{name: "byzantine", seed: 2, faults: []Fault{
			{Proc: 7, Kind: FaultCoinBias},
			{Proc: 6, Kind: FaultRValLie},
		}, messages: 676123, bytes: 159763503, shuns: 14},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunCoin(CoinConfig{N: 7, T: 2, Seed: c.seed, Rounds: 1, Wire: "v2", Faults: c.faults})
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut || len(res.RoundResults) != 1 {
				t.Fatalf("coin round did not complete (timed out: %v)", res.TimedOut)
			}
			if res.Messages != c.messages || res.Bytes != c.bytes || len(res.Shuns) != c.shuns {
				t.Fatalf("messages %d, bytes %d, shuns %d; pinned %d, %d, %d",
					res.Messages, res.Bytes, len(res.Shuns), c.messages, c.bytes, c.shuns)
			}
		})
	}
}
