// Baseline reproduces the §6.1 discussion: compare the paper's CSSG
// approach against the virtual-flip-flop synchronous model of Banerjee
// et al.  The baseline cuts feedback loops, runs standard synchronous
// ATPG, and validates vectors afterwards — an *optimistic* method: some
// of its tests use vectors that race or depend on gate delays on the
// real asynchronous circuit.
//
//	go run ./examples/baseline
package main

import (
	"context"
	"fmt"
	"log"

	satpg "repro"
)

func main() {
	for _, ref := range []string{"fig1a", "si/chu150", "si/converta"} {
		c, err := satpg.LoadBenchmark(ref)
		if err != nil {
			log.Fatal(err)
		}
		g, err := satpg.Abstract(c, satpg.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ours, err := satpg.GenerateCtx(context.Background(), g, satpg.OutputStuckAt, satpg.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		cmp := satpg.CompareBaseline(g, satpg.OutputStuckAt)
		fmt.Printf("%s (output stuck-at, %d faults)\n", ref, cmp.Total)
		fmt.Printf("  this paper (CSSG):        %d guaranteed detections\n", ours.Covered)
		fmt.Printf("  baseline (virtual FFs):   %d claimed detections\n", cmp.SyncCovered)
		fmt.Printf("    confirmed asynchronously: %d\n", cmp.Confirmed)
		fmt.Printf("    using invalid vectors:    %d  (non-confluent/oscillating — invisible to the baseline's validation)\n", cmp.InvalidVector)
		fmt.Printf("    detection delay-dependent:%d\n", cmp.NotGuaranteed)
		fmt.Printf("  baseline optimism: %.0f%% of its claims do not survive\n\n", 100*cmp.Optimism())
	}
}
