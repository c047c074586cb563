// Benchmark harness for the reproduction experiments E1–E10 (see the
// package comment of internal/exp) plus per-primitive micro
// benchmarks. The paper has no tables or figures, so each experiment
// regenerates one of its quantitative claims; run
//
//	go test -bench=. -benchmem
//
// to reproduce every table (quick scale; cmd/expsweep -full for the
// full-scale versions, -parallel N to fan trials across workers).
package svssba_test

import (
	"fmt"
	"testing"
	"time"

	"svssba"
	"svssba/internal/exp"
	"svssba/internal/trace"
)

var quick = exp.Scale{Quick: true}

// benchTable runs one experiment per benchmark invocation and logs its
// table.
func benchTable(b *testing.B, run func(exp.Scale) *trace.Table) {
	b.Helper()
	var tb *trace.Table
	for i := 0; i < b.N; i++ {
		tb = run(quick)
	}
	b.Log("\n" + tb.String())
}

func BenchmarkE1_ABATermination(b *testing.B)  { benchTable(b, exp.E1) }
func BenchmarkE2_RoundsVsN(b *testing.B)       { benchTable(b, exp.E2) }
func BenchmarkE3_CoinQuality(b *testing.B)     { benchTable(b, exp.E3) }
func BenchmarkE4_ShunBound(b *testing.B)       { benchTable(b, exp.E4) }
func BenchmarkE5_MsgComplexity(b *testing.B)   { benchTable(b, exp.E5) }
func BenchmarkE6_Resilience(b *testing.B)      { benchTable(b, exp.E6) }
func BenchmarkE7_Example1(b *testing.B)        { benchTable(b, exp.E7) }
func BenchmarkE8_DMMAblation(b *testing.B)     { benchTable(b, exp.E8) }
func BenchmarkE9_LatencySeries(b *testing.B)   { benchTable(b, exp.E9) }
func BenchmarkE10_ScenarioMatrix(b *testing.B) { benchTable(b, exp.E10) }

// BenchmarkAgreement measures one full agreement run end to end,
// reporting protocol-level metrics alongside wall time.
func BenchmarkAgreement(b *testing.B) {
	for _, n := range []int{4, 7} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var msgs, bytes, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := svssba.Run(svssba.Config{N: n, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Agreed {
					b.Fatal("agreement failed")
				}
				msgs += float64(res.Messages)
				bytes += float64(res.Bytes)
				rounds += float64(res.MaxRound)
			}
			nIter := float64(b.N)
			b.ReportMetric(msgs/nIter, "msgs/op")
			b.ReportMetric(bytes/nIter, "wirebytes/op")
			b.ReportMetric(rounds/nIter, "rounds/op")
		})
	}
}

// BenchmarkCommonCoin measures one shunning-common-coin invocation.
func BenchmarkCommonCoin(b *testing.B) {
	for _, n := range []int{4, 7} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				res, err := svssba.RunCoin(svssba.CoinConfig{N: n, Seed: int64(i), Rounds: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.RoundResults) != 1 {
					b.Fatal("coin did not complete")
				}
				msgs += float64(res.Messages)
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkCoinSetupN7 measures what the repository benchmark's sim_n7
// workload reports as setup_s: building seven coin stacks (n=7, t=2)
// and their network, then delivering one message.
func BenchmarkCoinSetupN7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := svssba.RunCoin(svssba.CoinConfig{N: 7, T: 2, Seed: int64(i + 1), Rounds: 1, MaxSteps: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVSS measures one SVSS share+reconstruct session.
func BenchmarkSVSS(b *testing.B) {
	for _, n := range []int{4, 7, 10} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				res, err := svssba.RunSVSS(svssba.SVSSConfig{N: n, Seed: int64(i), Secret: 7})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Outputs) < n {
					b.Fatal("svss did not complete")
				}
				msgs += float64(res.Messages)
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkClusterDroppersHeavyTail tracks the omission-fault heavy
// tail the ROADMAP flags: a dropper node silently loses a fraction of
// its outbound frames, which stresses the coin rounds (lottery
// reconstructions stall until redundant shares arrive) and can cost
// 10-100x the wall clock of a clean or crash run. The benchmark pins
// that regression to a name, so the perf trajectory recorded in
// CHANGES.md tracks it release over release.
func BenchmarkClusterDroppersHeavyTail(b *testing.B) {
	var msgs, frames, ms float64
	for i := 0; i < b.N; i++ {
		res, err := svssba.RunCluster(svssba.ClusterConfig{
			N: 4, T: 1, Seed: int64(100 + i),
			Transport: svssba.TransportChan,
			Droppers:  []int{4},
			Drop:      0.15,
			Timeout:   10 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreed {
			b.Fatal("agreement failed under omission faults")
		}
		ms += float64(res.Elapsed.Milliseconds())
		for _, nd := range res.Nodes {
			msgs += float64(nd.Sent)
			frames += float64(nd.SentFrames)
		}
	}
	nIter := float64(b.N)
	b.ReportMetric(ms/nIter, "cluster-ms/op")
	b.ReportMetric(msgs/nIter, "payloads/op")
	b.ReportMetric(frames/nIter, "frames/op")
}

// BenchmarkBaselines measures the prior-work protocols on the same
// workload for comparison.
func BenchmarkBaselines(b *testing.B) {
	cases := []struct {
		name string
		cfg  svssba.Config
	}{
		{name: "localcoin_n4", cfg: svssba.Config{N: 4, Protocol: svssba.ProtocolLocalCoin}},
		{name: "localcoin_n10", cfg: svssba.Config{N: 10, Protocol: svssba.ProtocolLocalCoin}},
		{name: "benor_n7t1", cfg: svssba.Config{N: 7, T: 1, Protocol: svssba.ProtocolBenOr}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				cfg.Seed = int64(i)
				cfg.MaxSteps = 50_000_000
				res, err := svssba.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.MaxRound)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		})
	}
}
