package svssba_test

import (
	"testing"

	"svssba"
)

func TestRunDefaultsDecideAndAgree(t *testing.T) {
	res, err := svssba.Run(svssba.Config{N: 4, Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.AllDecided || !res.Agreed {
		t.Fatalf("result: %+v", res)
	}
	if res.Value != 0 && res.Value != 1 {
		t.Errorf("non-binary value %d", res.Value)
	}
	if res.Messages == 0 || res.Bytes == 0 {
		t.Error("no traffic recorded")
	}
}

func TestRunUnanimousValidity(t *testing.T) {
	for _, v := range []int{0, 1} {
		res, err := svssba.Run(svssba.Config{
			N:      4,
			Seed:   2,
			Inputs: []int{v, v, v, v},
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !res.Agreed || res.Value != v {
			t.Errorf("unanimous %d: agreed=%v value=%d", v, res.Agreed, res.Value)
		}
	}
}

func TestRunWithByzantineFault(t *testing.T) {
	res, err := svssba.Run(svssba.Config{
		N:      4,
		Seed:   3,
		Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultVoteFlip}},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.AllDecided || !res.Agreed {
		t.Fatalf("byzantine run failed: %+v", res)
	}
}

func TestRunWithCrashAndDelaySchedulers(t *testing.T) {
	for _, sched := range []svssba.SchedulerKind{
		svssba.SchedRandom, svssba.SchedFIFO, svssba.SchedDelayUniform, svssba.SchedDelayExp,
	} {
		res, err := svssba.Run(svssba.Config{
			N:         4,
			Seed:      4,
			Scheduler: sched,
			Faults:    []svssba.Fault{{Proc: 2, Kind: svssba.FaultCrash}},
		})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if !res.Agreed {
			t.Errorf("%s: no agreement", sched)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	cases := []svssba.Config{
		{N: 1},
		{N: 4, Inputs: []int{1}},
		{N: 4, Inputs: []int{0, 1, 2, 1}},
		{N: 4, Faults: []svssba.Fault{{Proc: 9, Kind: svssba.FaultCrash}}},
		{N: 4, Protocol: svssba.ProtocolBenOr, Faults: []svssba.Fault{{Proc: 1, Kind: svssba.FaultVoteFlip}}},
		{N: 4, Protocol: "nope"},
	}
	for i, cfg := range cases {
		if _, err := svssba.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestSimConfigValidation runs one table of configs outside the
// paper's model (n > 3t, at most t faulty processes) or naming unknown
// knobs through every simulator entry point: each must be refused with
// an error, never run, stall or panic. MaxSteps bounds the rows that a
// missing check would otherwise let run. The accepted values of the
// deprecated Wire fields, "" and "v2", must still run.
func TestSimConfigValidation(t *testing.T) {
	agreement := func(cfg svssba.Config) func() error {
		return func() error { _, err := svssba.Run(cfg); return err }
	}
	sharing := func(cfg svssba.SVSSConfig) func() error {
		return func() error { _, err := svssba.RunSVSS(cfg); return err }
	}
	coin := func(cfg svssba.CoinConfig) func() error {
		return func() error { _, err := svssba.RunCoin(cfg); return err }
	}
	const budget = 100_000
	typo := []svssba.Fault{{Proc: 4, Kind: "vote-flp"}}
	blank := []svssba.Fault{{Proc: 4, Kind: ""}}
	twice := []svssba.Fault{{Proc: 4, Kind: svssba.FaultCrash}, {Proc: 4, Kind: svssba.FaultSilent}}
	tooMany := []svssba.Fault{{Proc: 3, Kind: svssba.FaultCrash}, {Proc: 4, Kind: svssba.FaultCrash}}
	cases := []struct {
		name string
		run  func() error
	}{
		{"run/wire=v1", agreement(svssba.Config{N: 4, Wire: "v1", MaxSteps: budget})},
		{"svss/wire=v1", sharing(svssba.SVSSConfig{N: 4, Wire: "v1", MaxSteps: budget})},
		{"coin/wire=v1", coin(svssba.CoinConfig{N: 4, Wire: "v1", MaxSteps: budget})},
		{"run/wire=v3", agreement(svssba.Config{N: 4, Wire: "v3", MaxSteps: budget})},
		{"run/t=-1", agreement(svssba.Config{N: 4, T: -1, MaxSteps: budget})},
		{"svss/t=-1", sharing(svssba.SVSSConfig{N: 4, T: -1, MaxSteps: budget})},
		{"coin/t=-1", coin(svssba.CoinConfig{N: 4, T: -1, MaxSteps: budget})},
		{"run/t=2", agreement(svssba.Config{N: 4, T: 2, MaxSteps: budget})},
		{"run/t=3", agreement(svssba.Config{N: 4, T: 3, MaxSteps: budget})},
		{"svss/t=2", sharing(svssba.SVSSConfig{N: 4, T: 2, MaxSteps: budget})},
		{"svss/t=3", sharing(svssba.SVSSConfig{N: 4, T: 3, MaxSteps: budget})},
		{"coin/t=2", coin(svssba.CoinConfig{N: 4, T: 2, MaxSteps: budget})},
		{"coin/t=3", coin(svssba.CoinConfig{N: 4, T: 3, MaxSteps: budget})},
		{"run/typo-kind", agreement(svssba.Config{N: 4, Faults: typo, MaxSteps: budget})},
		{"svss/typo-kind", sharing(svssba.SVSSConfig{N: 4, Faults: typo, MaxSteps: budget})},
		{"coin/typo-kind", coin(svssba.CoinConfig{N: 4, Faults: typo, MaxSteps: budget})},
		{"run/blank-kind", agreement(svssba.Config{N: 4, Faults: blank, MaxSteps: budget})},
		{"svss/blank-kind", sharing(svssba.SVSSConfig{N: 4, Faults: blank, MaxSteps: budget})},
		{"coin/blank-kind", coin(svssba.CoinConfig{N: 4, Faults: blank, MaxSteps: budget})},
		{"run/duplicate-fault", agreement(svssba.Config{N: 4, Faults: twice, MaxSteps: budget})},
		{"svss/duplicate-fault", sharing(svssba.SVSSConfig{N: 4, Faults: twice, MaxSteps: budget})},
		{"coin/duplicate-fault", coin(svssba.CoinConfig{N: 4, Faults: twice, MaxSteps: budget})},
		{"run/faults>t", agreement(svssba.Config{N: 4, Faults: tooMany, MaxSteps: budget})},
		{"svss/faults>t", sharing(svssba.SVSSConfig{N: 4, Faults: tooMany, MaxSteps: budget})},
		{"coin/faults>t", coin(svssba.CoinConfig{N: 4, Faults: tooMany, MaxSteps: budget})},
		{"coin/rounds=-2", coin(svssba.CoinConfig{N: 4, Rounds: -2, MaxSteps: budget})},
		{"run/unknown-scheduler", agreement(svssba.Config{N: 4, Scheduler: "partiton", MaxSteps: budget})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := c.run(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	for _, wire := range []string{"", "v2"} {
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"run", agreement(svssba.Config{N: 4, Wire: wire, MaxSteps: 1})},
			{"svss", sharing(svssba.SVSSConfig{N: 4, Wire: wire, MaxSteps: 1})},
			{"coin", coin(svssba.CoinConfig{N: 4, Wire: wire, MaxSteps: 1})},
		} {
			t.Run(c.name+"/wire="+wire, func(t *testing.T) {
				if err := c.run(); err != nil {
					t.Fatalf("valid config refused: %v", err)
				}
			})
		}
	}
}

func TestRunBaselines(t *testing.T) {
	for _, p := range []svssba.Protocol{svssba.ProtocolBenOr, svssba.ProtocolLocalCoin, svssba.ProtocolEpsCoin} {
		n := 4
		if p == svssba.ProtocolBenOr {
			n = 7 // Ben-Or needs n > 5t; keep t=1
		}
		cfg := svssba.Config{N: n, T: 1, Seed: 5, Protocol: p}
		res, err := svssba.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !res.Agreed {
			t.Errorf("%s: no agreement", p)
		}
	}
}

func TestRunEpsCoinOneStalls(t *testing.T) {
	res, err := svssba.Run(svssba.Config{
		N:        4,
		Seed:     6,
		Protocol: svssba.ProtocolEpsCoin,
		Eps:      1.0,
		MaxSteps: 5_000_000,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.AllDecided {
		t.Error("eps=1 run decided")
	}
}

func TestRunSVSSHonest(t *testing.T) {
	res, err := svssba.RunSVSS(svssba.SVSSConfig{N: 4, Seed: 7, Secret: 424242})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("outputs: %v", res.Outputs)
	}
	for pid, out := range res.Outputs {
		if out.Bottom || out.Value != 424242 {
			t.Errorf("process %d output %v", pid, out)
		}
	}
	if len(res.Shuns) != 0 {
		t.Errorf("shuns in honest run: %v", res.Shuns)
	}
}

func TestRunSVSSWithLiar(t *testing.T) {
	sawShun, sawAllCorrect := false, false
	for seed := int64(0); seed < 8; seed++ {
		res, err := svssba.RunSVSS(svssba.SVSSConfig{
			N:      4,
			Seed:   seed,
			Secret: 99,
			Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultRValLie}},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wrong := 0
		for pid, out := range res.Outputs {
			if pid == 4 {
				continue
			}
			if out.Bottom || out.Value != 99 {
				wrong++
			}
		}
		if wrong > 0 && len(res.Shuns) == 0 {
			t.Fatalf("seed %d: wrong outputs without shun", seed)
		}
		if len(res.Shuns) > 0 {
			sawShun = true
		}
		if wrong == 0 {
			sawAllCorrect = true
		}
	}
	if !sawShun {
		t.Error("liar never shunned across seeds")
	}
	_ = sawAllCorrect
}

func TestRunCoinDistribution(t *testing.T) {
	res, err := svssba.RunCoin(svssba.CoinConfig{N: 4, Seed: 8, Rounds: 6})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.RoundResults) != 6 {
		t.Fatalf("rounds: %d", len(res.RoundResults))
	}
	for i, rr := range res.RoundResults {
		if !rr.Agreed {
			t.Errorf("round %d: coin disagreement in honest run", i+1)
		}
	}
}
