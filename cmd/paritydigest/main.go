// Command paritydigest prints a byte-stable digest of a fixed matrix of
// deterministic runs (agreement across schedulers/faults/scales, plus
// standalone SVSS and coin sessions). Two builds of the tree produce
// identical output iff they make identical protocol decisions, schedules
// and logical stats for every covered seed — the guardrail used when a
// PR claims to be a pure representation change (capture the output
// before, diff after).
//
//	go run ./cmd/paritydigest         # quick matrix (seconds)
//	go run ./cmd/paritydigest -deep   # adds the n7/t2 cells (minutes)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"svssba"
	"svssba/internal/paritycells"
)

func main() {
	deep := flag.Bool("deep", false, "include the n7/t2 agreement cells (minutes of deliveries)")
	flag.Parse()
	emit(os.Stdout, *deep)
}

// emit writes the full digest (also driven by the golden test against
// testdata/parity.txt and `make parity`).
func emit(w io.Writer, deep bool) {
	for _, c := range paritycells.Agreement(deep) {
		res, err := svssba.Run(c.Cfg)
		if err != nil {
			fmt.Fprintf(w, "%s: ERR %v\n", c.Name, err)
			continue
		}
		fmt.Fprintf(w, "%s: %s\n", c.Name, digest(res))
	}

	sres, err := svssba.RunSVSS(svssba.SVSSConfig{N: 4, Seed: 1, Secret: 7})
	if err != nil {
		fmt.Fprintf(w, "svss-n4: ERR %v\n", err)
	} else {
		fmt.Fprintf(w, "svss-n4: outs=%v shared=%v shuns=%v msgs=%d bytes=%d\n",
			sortedKV(sres.Outputs), sres.ShareCompleted, sres.Shuns, sres.Messages, sres.Bytes)
	}
	lres, err := svssba.RunSVSS(svssba.SVSSConfig{N: 4, Seed: 2, Secret: 9,
		Faults: []svssba.Fault{{Proc: 4, Kind: svssba.FaultRValLie}}})
	if err != nil {
		fmt.Fprintf(w, "svss-n4-rvallie: ERR %v\n", err)
	} else {
		fmt.Fprintf(w, "svss-n4-rvallie: outs=%v shared=%v shuns=%v msgs=%d bytes=%d\n",
			sortedKV(lres.Outputs), lres.ShareCompleted, lres.Shuns, lres.Messages, lres.Bytes)
	}
	cres, err := svssba.RunCoin(svssba.CoinConfig{N: 4, Seed: 1, Rounds: 2})
	if err != nil {
		fmt.Fprintf(w, "coin-n4: ERR %v\n", err)
	} else {
		for i, rr := range cres.RoundResults {
			fmt.Fprintf(w, "coin-n4 r%d: bits=%v agreed=%v value=%d\n", i+1, sortedKV(rr.Bits), rr.Agreed, rr.Value)
		}
		fmt.Fprintf(w, "coin-n4: msgs=%d bytes=%d shuns=%v\n", cres.Messages, cres.Bytes, cres.Shuns)
	}
}

// digest renders every deterministic field of a Result in fixed order.
func digest(r *svssba.Result) string {
	return fmt.Sprintf(
		"dec=%v agreed=%v value=%d maxround=%d steps=%d vt=%d msgs=%d bytes=%d shuns=%v bykind=%v timeout=%v",
		sortedKV(r.Decisions), r.Agreed, r.Value, r.MaxRound, r.Steps, r.VirtualTime,
		r.Messages, r.Bytes, r.Shuns, sortedKV(r.MsgsByKind), r.TimedOut)
}

// sortedKV renders a map as sorted key=value pairs.
func sortedKV[K int | string, V any](m map[K]V) string {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	s := "["
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v=%v", k, m[k])
	}
	return s + "]"
}
