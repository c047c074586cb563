package svssba

import (
	"strings"
	"testing"
)

// TestSimCoinCountsRepeat pins the exact message and byte counts of one
// n=7 shunning-coin round — the benchmark's sim_n7 operation — for a
// fault-free and a Byzantine cell. The simulator is a pure function of
// its seed, so any change to what the engines send, in what order or in
// what shape moves these numbers; a representation change (how state is
// keyed, stored or allocated) must leave them alone. Together with the
// pinned parity digests this is what "same program, cheaper" means.
//
// The per-kind pins say what the digest echoes moved, against the
// counts before them (kept here as parentBytes): the MW-SVSS and SVSS
// kinds that travel on their own are byte-identical, and the WRB type 2
// and RB type 3 echoes — SHA-256 digests instead of bundle bodies — are
// pinned exactly at their new bytes (echoBytes), together 27.4 % of
// their former bytes in both cells. Counts are per carrier: an echo riding in a pack
// counts under pack/v2, so these are the echoes that travel bare.
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
		parentBytes     map[string]int64
		echoBytes       map[string]int64
	}{
		{name: "fault-free", seed: 1, messages: 971729, bytes: 61339638,
			parentBytes: map[string]int64{"svss/deal": 19551, "wrb/type2": 60624718, "rb/type3": 60402349},
			echoBytes:   map[string]int64{"wrb/type2": 16783693, "rb/type3": 16390451}},
		{name: "byzantine", seed: 2, faults: []Fault{
			{Proc: 7, Kind: FaultCoinBias},
			{Proc: 6, Kind: FaultRValLie},
		}, messages: 695687, bytes: 46074172, shuns: 14,
			parentBytes: map[string]int64{"svss/deal": 13965, "wrb/type2": 43315622, "rb/type3": 43136513},
			echoBytes:   map[string]int64{"wrb/type2": 11997604, "rb/type3": 11713569}},
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
			for _, kinds := range []map[string]int64{res.BytesByKind, c.parentBytes} {
				for kind := range kinds {
					if !strings.HasPrefix(kind, "mw/") && !strings.HasPrefix(kind, "svss/") {
						continue
					}
					if got, want := res.BytesByKind[kind], c.parentBytes[kind]; got != want {
						t.Errorf("%s: %d bytes, want %d as before the digest echoes", kind, got, want)
					}
				}
			}
			for kind, want := range c.echoBytes {
				if got := res.BytesByKind[kind]; got != want {
					t.Errorf("%s: %d bytes (%.1f %% of %d before the digest echoes), pinned %d",
						kind, got, 100*float64(got)/float64(c.parentBytes[kind]), c.parentBytes[kind], want)
				}
			}
		})
	}
}

// TestSimKindTotals: the per-kind breakdowns of a simulator result add
// up to its message and byte totals, for an agreement and a coin run.
func TestSimKindTotals(t *testing.T) {
	check := func(name string, msgs, bytes int64, msgsBy, bytesBy map[string]int64) {
		t.Helper()
		var m, b int64
		for k, c := range msgsBy {
			m += c
			b += bytesBy[k]
		}
		if m != msgs || b != bytes || len(bytesBy) != len(msgsBy) {
			t.Errorf("%s: kinds sum to %d messages, %d bytes over %d/%d kinds; totals %d, %d",
				name, m, b, len(msgsBy), len(bytesBy), msgs, bytes)
		}
	}
	res, err := Run(Config{N: 4, Seed: 1, Wire: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	check("agreement", res.Messages, res.Bytes, res.MsgsByKind, res.BytesByKind)
	coin, err := RunCoin(CoinConfig{N: 4, Seed: 1, Wire: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	check("coin", coin.Messages, coin.Bytes, coin.MsgsByKind, coin.BytesByKind)
}
