// Command sharedcoin exercises the shunning common coin (paper §5)
// directly: it runs a batch of coin invocations on the deterministic
// simulator, reports the empirical distribution against the SCC
// Correctness property (each side with probability >= 1/4), and then
// runs one full agreement on the live goroutine runtime to show the same
// state machines working under real concurrency.
package main

import (
	"fmt"
	"log"
	"time"

	"svssba"
)

func main() {
	const runs = 16
	all0, all1 := 0, 0
	fmt.Printf("flipping %d shared coins (n=4, one invocation each)...\n", runs)
	for seed := int64(0); seed < runs; seed++ {
		res, err := svssba.RunCoin(svssba.CoinConfig{N: 4, Seed: seed, Rounds: 1})
		if err != nil {
			log.Fatal(err)
		}
		rr := res.RoundResults[0]
		if !rr.Agreed {
			fmt.Printf("  seed %2d: DISAGREEMENT %v\n", seed, rr.Bits)
			continue
		}
		if rr.Value == 0 {
			all0++
		} else {
			all1++
		}
		fmt.Printf("  seed %2d: all processes flipped %d\n", seed, rr.Value)
	}
	fmt.Printf("\ndistribution: all-0 %d/%d, all-1 %d/%d  (SCC needs >= 1/4 each)\n",
		all0, runs, all1, runs)

	fmt.Println("\nnow the full protocol on the live goroutine runtime:")
	live, err := svssba.RunCluster(svssba.ClusterConfig{
		N:         4,
		Seed:      77,
		Transport: svssba.TransportChan,
		Delay:     500 * time.Microsecond,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	var messages int64
	for _, nd := range live.Nodes {
		messages += nd.Sent
	}
	fmt.Printf("  %d goroutine-processes agreed on %d in %v (%d messages over the wire codec)\n",
		len(live.Decisions), live.Value, live.Elapsed.Round(time.Millisecond), messages)
}
