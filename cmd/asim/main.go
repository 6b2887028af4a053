// Command asim simulates an asynchronous circuit in test mode: each
// argument is one input vector (binary, input 0 = rightmost bit); the
// tool classifies every vector (valid / non-confluent / oscillating),
// shows the Eichelberger ternary settling result, and follows the
// unique successor while the sequence stays valid.
//
// Usage:
//
//	asim -bench fig1a 11 01
//	asim -circuit my.ckt 01 11 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	satpg "repro"
	"repro/internal/sim"
)

func main() {
	var (
		circuitFile = flag.String("circuit", "", "path to a .ckt circuit file")
		benchRef    = flag.String("bench", "", "bundled benchmark (si/<name>, hf/<name>, fig1a, fig1b)")
		k           = flag.Int("k", 0, "test-cycle length in transitions (0: 4×signals)")
	)
	flag.Parse()

	c, err := loadCircuit(*circuitFile, *benchRef)
	if err != nil {
		fatal(err)
	}
	opts := satpg.Options{K: *k}
	state := c.InitState()
	fmt.Printf("signals: %v\n", c.SignalNames())
	fmt.Printf("reset:   %s (outputs %0*b)\n", c.FormatState(state), len(c.Outputs), c.OutputBits(state))
	for i, arg := range flag.Args() {
		pattern, err := strconv.ParseUint(arg, 2, 64)
		if err != nil {
			fatal(fmt.Errorf("vector %d (%q): %v", i+1, arg, err))
		}
		if pattern == c.InputBits(state) {
			fmt.Printf("cycle %d: vector %s leaves the inputs unchanged; skipping\n", i+1, arg)
			continue
		}
		an := satpg.Analyze(c, state, pattern, opts)
		tern := sim.ApplyVector(c, sim.TernaryFromPacked(c, state), pattern, nil)
		fmt.Printf("cycle %d: vector %0*b  class=%s  ternary=%s (A:%d B:%d gate evaluations)\n",
			i+1, c.NumInputs(), pattern, an.Class, tern.State, tern.EvalsA, tern.EvalsB)
		if an.Class != satpg.VectorValid {
			for j, s := range an.StableSuccs {
				fmt.Printf("  possible final state %d: %s\n", j, c.FormatState(s))
			}
			if an.UnstableAtK {
				fmt.Println("  circuit may still be unstable at the end of the test cycle")
			}
			fmt.Println("  sequence aborted: vector is not usable for synchronous testing")
			return
		}
		state = an.StableSuccs[0]
		fmt.Printf("  settled: %s (outputs %0*b, %d transitions worst case)\n",
			c.FormatState(state), len(c.Outputs), c.OutputBits(state), an.SettleDepth)
	}
}

func loadCircuit(file, bench string) (*satpg.Circuit, error) {
	switch {
	case file != "" && bench != "":
		return nil, fmt.Errorf("use either -circuit or -bench, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return satpg.ParseCircuit(f, file)
	case bench != "":
		return satpg.LoadBenchmark(bench)
	}
	return nil, fmt.Errorf("one of -circuit or -bench is required")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asim:", err)
	os.Exit(1)
}
