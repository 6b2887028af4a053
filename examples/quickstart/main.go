// Quickstart: define a small asynchronous circuit, abstract it into its
// CSSG and generate a complete stuck-at test set.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	satpg "repro"
)

// A two-stage Muller pipeline: the canonical speed-independent
// handshake controller.  Every primary input is implicitly buffered;
// `C` is a Muller C-element (output follows the inputs when they agree,
// holds otherwise).
const pipeline = `
circuit pipe2
input  Li Ra
output c1 c2
gate   n1 NOT c2
gate   c1 C   Li n1
gate   n2 NOT Ra
gate   c2 C   c1 n2
init   Li=0 Ra=0 n1=1 c1=0 n2=1 c2=0
`

func main() {
	c, err := satpg.ParseCircuitString(pipeline, "pipe2.ckt")
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: the synchronous abstraction.  Vectors that race or
	// oscillate under the unbounded gate-delay model are pruned; what
	// remains is a deterministic FSM a synchronous tester can drive.
	g, err := satpg.Abstract(c, satpg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("abstraction:", g.Summary())

	// Step 2: test generation for input stuck-at faults (which subsume
	// output stuck-at faults).
	res, err := satpg.GenerateCtx(context.Background(), g, satpg.InputStuckAt, satpg.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("atpg:       ", res.Summary())

	// Step 3: the tests are plain synchronous stimulus/response
	// programs; print the first one.
	for _, p := range satpg.Programs(g, res)[:1] {
		fmt.Print(satpg.FormatProgram(c, p))
	}

	// Every generated test is guaranteed for every delay assignment:
	// demonstrate it on a timed model of the chip with random gate
	// delays.
	if err := satpg.ValidateOnTester(g, res, 10, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("validated: every test detects its faults under 10 random delay assignments")
}
