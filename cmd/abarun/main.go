// Command abarun runs one asynchronous Byzantine agreement and prints a
// detailed report. It exposes every knob of the public API: cluster
// size, protocol, inputs, faults, scheduler and seed.
//
// Examples:
//
//	abarun -n 4 -seed 7
//	abarun -n 7 -inputs 0,1,0,1,0,1,0 -faults 6:vote-equivocate,7:rval-lie
//	abarun -n 7 -protocol localcoin -scheduler delay-exp
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"svssba"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abarun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 4, "number of processes")
		t         = flag.Int("t", 0, "resilience bound (default (n-1)/3)")
		seed      = flag.Int64("seed", 1, "random seed (schedule, polynomials, coins)")
		protocol  = flag.String("protocol", "adh", "adh | benor | localcoin | epscoin")
		inputsArg = flag.String("inputs", "", "comma-separated binary inputs (default alternating)")
		faultsArg = flag.String("faults", "", "comma-separated proc:kind pairs, e.g. 4:vote-flip")
		scheduler = flag.String("scheduler", "random", "random | fifo | delay-uniform | delay-exp | partition")
		eps       = flag.Float64("eps", 0, "coin failure probability (epscoin)")
		maxSteps  = flag.Int("maxsteps", 0, "delivery budget (0 = default)")
		verbose   = flag.Bool("v", false, "print per-kind message and byte counts")
	)
	flag.Parse()

	cfg := svssba.Config{
		N:         *n,
		T:         *t,
		Seed:      *seed,
		Protocol:  svssba.Protocol(*protocol),
		Scheduler: svssba.SchedulerKind(*scheduler),
		Eps:       *eps,
		MaxSteps:  *maxSteps,
	}
	if *inputsArg != "" {
		for _, part := range strings.Split(*inputsArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad input %q: %v", part, err)
			}
			cfg.Inputs = append(cfg.Inputs, v)
		}
	}
	if *faultsArg != "" {
		for _, part := range strings.Split(*faultsArg, ",") {
			proc, kind, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				return fmt.Errorf("bad fault %q (want proc:kind)", part)
			}
			p, err := strconv.Atoi(proc)
			if err != nil {
				return fmt.Errorf("bad fault process %q: %v", proc, err)
			}
			cfg.Faults = append(cfg.Faults, svssba.Fault{Proc: p, Kind: svssba.FaultKind(kind)})
		}
	}

	res, err := svssba.Run(cfg)
	if err != nil {
		return err
	}

	effT := cfg.T
	if effT == 0 {
		effT = (cfg.N - 1) / 3
	}
	fmt.Printf("protocol      %s (n=%d, t=%d, seed=%d, scheduler=%s)\n",
		cfg.Protocol, cfg.N, effT, cfg.Seed, cfg.Scheduler)
	if len(cfg.Inputs) == 0 {
		fmt.Printf("inputs        alternating 0/1 (default)\n")
	} else {
		fmt.Printf("inputs        %v\n", cfg.Inputs)
	}
	if len(cfg.Faults) > 0 {
		fmt.Printf("faults        %v\n", cfg.Faults)
	}
	fmt.Printf("all decided   %v\n", res.AllDecided)
	fmt.Printf("agreed        %v\n", res.Agreed)
	if res.AllDecided {
		fmt.Printf("decision      %d\n", res.Value)
	}
	fmt.Printf("max round     %d\n", res.MaxRound)
	fmt.Printf("deliveries    %d\n", res.Steps)
	fmt.Printf("virtual time  %d\n", res.VirtualTime)
	if *verbose {
		fmt.Printf("causal depth  %d (largest Lamport depth at an honest decision)\n", res.Depth)
	}
	fmt.Printf("messages      %d (%d bytes)\n", res.Messages, res.Bytes)
	if res.TimedOut {
		fmt.Printf("TIMED OUT     delivery budget exhausted\n")
	}
	if len(res.Shuns) > 0 {
		fmt.Printf("shun events   %d\n", len(res.Shuns))
		for _, s := range res.Shuns {
			fmt.Printf("  process %d shuns process %d\n", s.By, s.Detected)
		}
	}
	if *verbose {
		kinds := make([]string, 0, len(res.MsgsByKind))
		for k := range res.MsgsByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Println("messages by kind:")
		for _, k := range kinds {
			fmt.Printf("  %-16s %9d %12d bytes\n", k, res.MsgsByKind[k], res.BytesByKind[k])
		}
	}
	return nil
}
