// Package paritycells defines the fixed matrix of deterministic runs
// shared by cmd/paritydigest (the representation-change guardrail) and
// the root package's property test over the same cells: agreement cells
// across schedulers, fault behaviours and scales, plus standalone SVSS
// and coin sessions. Keeping the matrix in one place means the digest
// pins exactly the runs whose agreement and validity the test checks.
package paritycells

import "svssba"

// Cell is one named deterministic agreement run.
type Cell struct {
	Name string
	Cfg  svssba.Config
}

// Agreement returns the agreement-run matrix. With deep, the n7/t2
// cells (minutes of deliveries) are appended.
func Agreement(deep bool) []Cell {
	cells := []Cell{
		{"n4-random-s1", svssba.Config{N: 4, Seed: 1}},
		{"n4-random-s2", svssba.Config{N: 4, Seed: 2}},
		{"n4-random-s3", svssba.Config{N: 4, Seed: 3}},
		{"n4-fifo-s1", svssba.Config{N: 4, Seed: 1, Scheduler: svssba.SchedFIFO}},
		{"n4-delayexp-s1", svssba.Config{N: 4, Seed: 1, Scheduler: svssba.SchedDelayExp}},
		{"n4-partition-s1", svssba.Config{N: 4, Seed: 1, Scheduler: svssba.SchedPartition}},
		{"n5-crash-s1", svssba.Config{N: 5, T: 1, Seed: 1, Faults: []svssba.Fault{{Proc: 5, Kind: svssba.FaultCrash}}}},
		{"n4-silent-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultSilent}}}},
		{"n4-voteflip-s1", svssba.Config{N: 4, Seed: 1, Inputs: []int{1, 1, 1, 1}, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultVoteFlip}}}},
		{"n4-voteequiv-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultVoteEquivocate}}}},
		{"n4-rvallie-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultRValLie}}}},
		{"n4-echolie-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultEchoLie}}}},
		{"n4-dealcorrupt-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultDealCorrupt}}}},
		{"n4-muteburst-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultMuteBurst}}}},
		{"n4-targdelay-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultTargetedDelay}}}},
		{"n4-crossequiv-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultCrossEquivocate}}}},
		{"n4-coinbias-s1", svssba.Config{N: 4, Seed: 1, Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultCoinBias}}}},
		{"n5-coinbias-s7", svssba.Config{N: 5, T: 1, Seed: 7, Faults: []svssba.Fault{{Proc: 5, Kind: svssba.FaultCoinBias}}}},
		{"n4-benor", svssba.Config{N: 4, Seed: 1, Protocol: svssba.ProtocolBenOr}},
		{"n4-localcoin", svssba.Config{N: 4, Seed: 1, Protocol: svssba.ProtocolLocalCoin}},
	}
	if deep {
		cells = append(cells, Cell{"n7-random-s1", svssba.Config{N: 7, T: 2, Seed: 1}})
	}
	return cells
}
