// Dft reproduces the paper's §6 recommendation for poorly-covered
// circuits ("testability can be assisted by partial scan-path"):
// a fork-join controller whose observation logic combines two
// lock-stepped pipeline branches has untestable input stuck-at faults —
// the branches agree in every reachable stable state, so a stuck pin on
// an AND/NAND/NOR of the two is masked.  One control point on a branch
// breaks the correlation and recovers full coverage.
//
//	go run ./examples/dft
package main

import (
	"context"
	"fmt"
	"log"

	satpg "repro"
	"repro/internal/dft"
)

func main() {
	c := dft.DemoCircuit()
	fmt.Printf("circuit %s: %d gates, outputs %d\n", c.Name, c.NumGates(), len(c.Outputs))

	opts := satpg.Options{Seed: 1, Flow: satpg.FlowCSSG}
	res, err := satpg.Run(context.Background(), c, satpg.InputStuckAt, opts)
	if err != nil {
		log.Fatal(err)
	}
	g := res.Graph
	fmt.Println("before DFT:", res.Summary())
	for _, fr := range res.PerFault {
		if fr.Untestable {
			fmt.Printf("  untestable: %s (masked by branch correlation)\n", fr.Fault.Describe(c))
		}
	}
	// The glitch report shows the observation logic is also hazardous
	// (filtered pulses), even though every vector is valid.
	if hz := g.Hazards(3); len(hz) > 0 {
		fmt.Printf("hazard scan: %d filtered glitches along valid vectors (first: %s)\n",
			len(g.Hazards(0)), hz[0].Describe(c))
	}

	instrumented, err := satpg.InsertTestPoints(c, []satpg.TestPoint{
		{Signal: "bc", Kind: satpg.ControlPoint},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted control point on bc: +%d inputs, circuit now %s\n",
		instrumented.NumInputs()-c.NumInputs(), instrumented.Name)

	res2, err := satpg.Run(context.Background(), instrumented, satpg.InputStuckAt, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after DFT: ", res2.Summary())
	if res2.Coverage() > res.Coverage() {
		fmt.Printf("coverage recovered: %.2f%% -> %.2f%%\n", 100*res.Coverage(), 100*res2.Coverage())
	}
}
