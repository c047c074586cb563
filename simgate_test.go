package svssba

import (
	"strings"
	"testing"

	"svssba/internal/sim"
)

// TestSimCoinCountsRepeat pins the exact message and byte counts of one
// n=7 shunning-coin round — the benchmark's sim_n7 operation — for a
// fault-free and a Byzantine cell. The simulator is a pure function of
// its seed, so any change to what the engines send, in what order or in
// what shape moves these numbers; a representation change (how state is
// keyed, stored or allocated) must leave them alone. Together with the
// pinned parity digests this is what "same program, cheaper" means.
//
// A process holds its next bundle while two of its own are unaccepted
// (internal/core/burst.go), so a round cuts a few hundred bundles where
// it cut ~9,000, and every bundle pays 2n(n−1) digest echoes whatever it
// carries. The cells' message counts before the hold are kept as
// unheld; the pinned ones must stay at most a tenth of them.
//
// The per-kind pins: the MW-SVSS and SVSS kinds that travel on their
// own are byte-identical to the counts before the digest echoes and the
// hold (parentBytes), and the WRB type 2 and RB type 3 echoes are pinned
// exactly (echoBytes). Counts are per carrier: an echo riding in a pack
// counts under pack/v2, so these are the echoes that travel bare.
//
// Latency is pinned too, as the Lamport depth at the coin output
// (CoinRound.Depth), under the default random scheduler and under the
// FIFO one. FIFO depth is the gated figure: there every message takes
// one unit of delay, so depth counts asynchronous rounds, while under
// the random scheduler it tracks the number of messages. It may not
// exceed fifoDepthBound.
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
		depth           int64 // random scheduler
		fifoDepth       int64
		unheld          int64 // messages before the bundle hold
		parentBytes     map[string]int64
		echoBytes       map[string]int64
	}{
		{name: "fault-free", seed: 1, messages: 33138, bytes: 28775133, depth: 391, fifoDepth: 38,
			unheld:      971729,
			parentBytes: map[string]int64{"svss/deal": 19551},
			echoBytes:   map[string]int64{"wrb/type2": 125695, "rb/type3": 122108}},
		{name: "byzantine", seed: 2, faults: []Fault{
			{Proc: 7, Kind: FaultCoinBias},
			{Proc: 6, Kind: FaultRValLie},
		}, messages: 27195, bytes: 20399879, shuns: 14, depth: 374, fifoDepth: 38,
			unheld:      695687,
			parentBytes: map[string]int64{"svss/deal": 13965},
			echoBytes:   map[string]int64{"wrb/type2": 128330, "rb/type3": 124901}},
	}
	// fifoDepthBound is 25 % over the FIFO depth of both cells before
	// the bundle hold (32).
	const fifoDepthBound = 40
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := CoinConfig{N: 7, T: 2, Seed: c.seed, Rounds: 1, Faults: c.faults}
			res, err := RunCoin(cfg)
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
			if res.Messages*10 > c.unheld {
				t.Errorf("%d messages, over a tenth of the %d before the bundle hold", res.Messages, c.unheld)
			}
			if got := res.RoundResults[0].Depth; got != c.depth {
				t.Errorf("causal depth %d, pinned %d", got, c.depth)
			}
			fifo, err := runCoin(cfg, sim.WithScheduler(sim.NewFIFOScheduler()))
			if err != nil {
				t.Fatal(err)
			}
			if fifo.TimedOut || len(fifo.RoundResults) != 1 {
				t.Fatalf("FIFO coin round did not complete (timed out: %v)", fifo.TimedOut)
			}
			if got := fifo.RoundResults[0].Depth; got != c.fifoDepth || got > fifoDepthBound {
				t.Errorf("FIFO causal depth %d, pinned %d (bound %d)", got, c.fifoDepth, fifoDepthBound)
			}
			for _, kinds := range []map[string]int64{res.BytesByKind, c.parentBytes} {
				for kind := range kinds {
					if !strings.HasPrefix(kind, "mw/") && !strings.HasPrefix(kind, "svss/") {
						continue
					}
					if got, want := res.BytesByKind[kind], c.parentBytes[kind]; got != want {
						t.Errorf("%s: %d bytes, want %d as before the digest echoes and the hold", kind, got, want)
					}
				}
			}
			for kind, want := range c.echoBytes {
				if got := res.BytesByKind[kind]; got != want {
					t.Errorf("%s: %d bytes, pinned %d", kind, got, want)
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
	res, err := Run(Config{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("agreement", res.Messages, res.Bytes, res.MsgsByKind, res.BytesByKind)
	coin, err := RunCoin(CoinConfig{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("coin", coin.Messages, coin.Bytes, coin.MsgsByKind, coin.BytesByKind)
}
