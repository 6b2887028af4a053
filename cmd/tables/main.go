// Command tables regenerates the paper's experimental tables:
// Table 1 (speed-independent benchmarks) and Table 2 (hazard-free
// bounded-delay benchmarks), with the same columns — output-SA and
// input-SA fault totals and coverage, the rnd/3-ph/sim detection split,
// and per-circuit CPU time.
//
// Usage:
//
//	tables            # both tables
//	tables -table 1   # only Table 1
//	tables -seed 7 -random-seqs 64 -random-len 12
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	satpg "repro"
)

func main() {
	var (
		table  = flag.Int("table", 0, "which table to regenerate (1, 2, or 0 for both)")
		seed   = flag.Int64("seed", 1, "random TPG seed")
		seqs   = flag.Int("random-seqs", 0, "random walks (0: default)")
		seqLen = flag.Int("random-len", 0, "vectors per walk (0: default)")
	)
	flag.Parse()
	opts := satpg.Options{Seed: *seed, RandomSequences: *seqs, RandomLength: *seqLen}

	if *table == 0 || *table == 1 {
		fmt.Println("Table 1: speed-independent circuits (cf. DAC'97 Table 1)")
		runSuite(satpg.SpeedIndependentSuite(), opts)
		fmt.Println()
	}
	if *table == 0 || *table == 2 {
		fmt.Println("Table 2: hazard-free circuits with bounded delays (cf. DAC'97 Table 2)")
		runSuite(satpg.HazardFreeSuite(), opts)
		fmt.Println()
	}
	if *table < 0 || *table > 2 {
		fmt.Fprintln(os.Stderr, "tables: -table must be 0, 1 or 2")
		os.Exit(1)
	}
}

func runSuite(suite []satpg.Benchmark, opts satpg.Options) {
	fmt.Println(satpg.TableHeader())
	var outTot, outCov, inTot, inCov int
	start := time.Now()
	for _, bm := range suite {
		// The table suites are all explicit-state sized, so they run the
		// CSSG flow — the paper's exact configuration — and both models
		// share one abstraction of the circuit.
		g, err := satpg.Abstract(bm.Circuit, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", bm.Name, err)
			os.Exit(1)
		}
		out, err := satpg.GenerateCtx(context.Background(), g, satpg.OutputStuckAt, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", bm.Name, err)
			os.Exit(1)
		}
		in, err := satpg.GenerateCtx(context.Background(), g, satpg.InputStuckAt, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", bm.Name, err)
			os.Exit(1)
		}
		fmt.Println(satpg.TableRow(bm.Name, out, in))
		outTot += out.Total
		outCov += out.Covered
		inTot += in.Total
		inCov += in.Covered
	}
	fmt.Printf("%-16s %5d %5d   %5d %5d   Total FC: output %.2f%%  input %.2f%%  (wall %v)\n",
		"TOTAL", outTot, outCov, inTot, inCov,
		100*float64(outCov)/float64(outTot), 100*float64(inCov)/float64(inTot),
		time.Since(start).Round(time.Millisecond))
}
