// Command coinstat measures the shunning common coin's empirical
// distribution — the SCC Correctness property of paper §5, Definition 2:
// for each σ ∈ {0,1}, all nonfaulty processes output σ with probability
// at least 1/4.
//
// Example:
//
//	coinstat -n 4 -runs 40
//	coinstat -n 4 -runs 40 -fault 4:rval-lie
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"svssba"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coinstat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 4, "number of processes")
		t        = flag.Int("t", 0, "resilience bound (default (n-1)/3)")
		runs     = flag.Int("runs", 24, "number of independent coin invocations")
		seed     = flag.Int64("seed", 0, "base seed (run i uses seed+i)")
		faultArg = flag.String("fault", "", "proc:kind fault, e.g. 4:rval-lie")
	)
	flag.Parse()

	var faults []svssba.Fault
	if *faultArg != "" {
		proc, kind, ok := strings.Cut(*faultArg, ":")
		if !ok {
			return fmt.Errorf("bad fault %q", *faultArg)
		}
		p, err := strconv.Atoi(proc)
		if err != nil {
			return fmt.Errorf("bad fault process %q: %v", proc, err)
		}
		faults = append(faults, svssba.Fault{Proc: p, Kind: svssba.FaultKind(kind)})
	}

	all0, all1, split, timeout := 0, 0, 0, 0
	shuns := 0
	for i := 0; i < *runs; i++ {
		res, err := svssba.RunCoin(svssba.CoinConfig{
			N:      *n,
			T:      *t,
			Seed:   *seed + int64(i),
			Rounds: 1,
			Faults: faults,
		})
		if err != nil {
			return err
		}
		shuns += len(res.Shuns)
		if res.TimedOut || len(res.RoundResults) == 0 {
			timeout++
			continue
		}
		rr := res.RoundResults[0]
		switch {
		case !rr.Agreed:
			split++
		case rr.Value == 0:
			all0++
		default:
			all1++
		}
	}

	fmt.Printf("shunning common coin, n=%d, %d invocations\n", *n, *runs)
	fmt.Printf("  all-0  %3d  (%.2f; SCC needs >= 0.25)\n", all0, float64(all0)/float64(*runs))
	fmt.Printf("  all-1  %3d  (%.2f; SCC needs >= 0.25)\n", all1, float64(all1)/float64(*runs))
	fmt.Printf("  split  %3d  (allowed only alongside shunning)\n", split)
	fmt.Printf("  stuck  %3d\n", timeout)
	fmt.Printf("  shun events observed: %d\n", shuns)
	return nil
}
