// Command scenario runs the adversarial scenario matrix: schedulers ×
// Byzantine behaviours × (n,t) scales × seeds, with agreement, validity
// and termination invariants checked on every cell.
//
//	scenario -quick              # 4×7×2×1 = 56 cells (the default)
//	scenario -full               # 5×10×4×3 = 600 cells (includes n7/t2, n10/t3)
//	scenario -scale n4           # restrict the scale axis
//	scenario -seeds 5            # override the seed axis (1000..1004)
//	scenario -workers 0          # one worker per CPU (default)
//	scenario -json               # machine-readable report
//	scenario -list               # print the cell ids and exit
//	scenario -replay CELL        # deterministically re-run one cell
//
// Every run is a pure function of its seeded config, so a failing cell
// named in the report is reproduced byte-identically by -replay — the
// debugging loop for any invariant violation is one command.
//
// The process exits nonzero when any invariant is violated (or any cell
// errored), which makes the quick matrix a usable CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"svssba/internal/scenario"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "run the quick matrix (default)")
		full    = flag.Bool("full", false, "run the full matrix")
		seeds   = flag.Int("seeds", 0, "override the number of seeds per cell (seeds 1000..1000+n-1)")
		scale   = flag.String("scale", "", "restrict the matrix to one scale axis value (e.g. n4)")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		asJSON  = flag.Bool("json", false, "emit the JSON report instead of the text table")
		list    = flag.Bool("list", false, "list cell ids and exit")
		replay  = flag.String("replay", "", "re-run a single cell by id and print its JSON")
		service = flag.Bool("service", false, "run the agreement-as-a-service check instead of the matrix (concurrent ACS sessions on the node runtime)")
	)
	flag.Parse()
	_ = quick // quick is the default; the flag exists for explicitness

	if *service {
		// One multi-session cell on the real node runtime: agreement,
		// validity and termination checked per session across nodes.
		start := time.Now()
		violations := scenario.ServiceCheck(4, 42, 3, 2*time.Minute)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		fmt.Printf("service check OK (%v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	m := scenario.Quick()
	if *full {
		m = scenario.Full()
	}
	if *seeds > 0 {
		m.Seeds = nil
		for s := 0; s < *seeds; s++ {
			m.Seeds = append(m.Seeds, int64(1000+s))
		}
	}
	if *scale != "" {
		var kept []scenario.Scale
		for _, s := range m.Scales {
			if s.Name == *scale {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			fail(fmt.Errorf("unknown scale %q", *scale))
		}
		m.Scales = kept
	}
	if err := m.ValidateNames(); err != nil {
		fail(err)
	}

	if *list {
		for _, c := range m.Cells() {
			fmt.Println(c.ID)
		}
		return
	}

	if *replay != "" {
		cr, err := scenario.Replay(m, *replay)
		if err != nil {
			fail(err)
		}
		emitJSON(cr)
		for _, v := range cr.Violations {
			fmt.Fprintln(os.Stderr, v)
		}
		if len(cr.Violations) > 0 || cr.Err != "" {
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	rep := scenario.Run(m, *workers)
	elapsed := time.Since(start)

	if *asJSON {
		emitJSON(rep)
	} else {
		fmt.Println(rep.Table().String())
		fmt.Printf("(%d cells in %v)\n", len(rep.Cells), elapsed.Round(time.Millisecond))
	}

	failed := false
	for _, v := range rep.Violations {
		fmt.Fprintln(os.Stderr, v)
		failed = true
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			fmt.Fprintf(os.Stderr, "%s: error: %s\n", c.Cell.ID, c.Err)
			failed = true
		}
	}
	if failed {
		// Cell ids resolve against the matrix the flags selected, so the
		// hint must repeat them.
		matrixFlags := ""
		if *full {
			matrixFlags += " -full"
		}
		if *seeds > 0 {
			matrixFlags += fmt.Sprintf(" -seeds %d", *seeds)
		}
		if *scale != "" {
			matrixFlags += fmt.Sprintf(" -scale %s", *scale)
		}
		fmt.Fprintf(os.Stderr, "replay any cell above with: go run ./cmd/scenario%s -replay <cell-id>\n", matrixFlags)
		os.Exit(1)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
	os.Exit(1)
}
