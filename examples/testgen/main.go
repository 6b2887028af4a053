// Testgen runs the full production flow on a Table-1 benchmark
// controller: abstraction, both fault models, per-phase statistics,
// emission of the tester program file, and Monte-Carlo validation of
// every program on a timed model of the fabricated chip.
//
//	go run ./examples/testgen
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	satpg "repro"
)

func main() {
	c, err := satpg.LoadBenchmark("si/sbuf-send-ctl")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %d inputs, %d gates, %d outputs\n",
		c.Name, c.NumInputs(), c.NumGates(), len(c.Outputs))

	start := time.Now()
	g, err := satpg.Abstract(c, satpg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g.Summary())
	fmt.Printf("test-cycle bound: τ = α·|σ| = %.1f ns for α = 2 ns\n", g.CycleBound(2.0))

	opts := satpg.Options{Seed: 1}
	out, err := satpg.GenerateCtx(context.Background(), g, satpg.OutputStuckAt, opts)
	if err != nil {
		log.Fatal(err)
	}
	in, err := satpg.GenerateCtx(context.Background(), g, satpg.InputStuckAt, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(satpg.TableHeader())
	fmt.Println(satpg.TableRow(c.Name, out, in))
	fmt.Printf("flow time: %v\n", time.Since(start).Round(time.Millisecond))

	// Emit the tester programs for the input-SA test set.
	f, err := os.CreateTemp("", "satpg-*.tests")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range satpg.Programs(g, in) {
		fmt.Fprintln(f, satpg.FormatProgram(c, p))
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d tester programs to %s\n", len(in.Tests), f.Name())

	// Validate: for every detected fault, the program must catch it
	// under every random bounded delay assignment of the chip model.
	if err := satpg.ValidateOnTester(g, in, 10, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all programs validated under 10 random delay assignments each")
}
