package dft

import (
	"context"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
)

func coverage(t *testing.T, c *netlist.Circuit) (*atpg.Result, *core.CSSG) {
	t.Helper()
	g, err := core.Build(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := atpg.RunUniverseCtx(context.Background(), g, faults.InputSA, faults.Universe(g.C, faults.InputSA), atpg.Options{Seed: 1})
	return res, g
}

func TestDemoCircuitHasUntestableFaults(t *testing.T) {
	c := DemoCircuit()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _ := coverage(t, c)
	if res.Untestable == 0 {
		t.Fatalf("demo circuit must have untestable faults: %s", res.Summary())
	}
	if res.Coverage() >= 1 {
		t.Fatalf("demo circuit must be under-covered: %s", res.Summary())
	}
	t.Logf("before DFT: %s", res.Summary())
}

func TestControlPointRecoversCoverage(t *testing.T) {
	c := DemoCircuit()
	before, _ := coverage(t, c)
	instrumented, err := Insert(c, []Point{{Signal: "bc", Kind: Control}})
	if err != nil {
		t.Fatal(err)
	}
	if err := instrumented.Validate(); err != nil {
		t.Fatal(err)
	}
	after, _ := coverage(t, instrumented)
	// Coverage percentage must strictly improve (the universes differ in
	// size, so compare ratios).
	if after.Coverage() <= before.Coverage() {
		t.Fatalf("control point did not help: before %s after %s", before.Summary(), after.Summary())
	}
	// Specifically: the XOR-tap faults must now be covered.
	for _, fr := range after.PerFault {
		name := fr.Fault.Describe(instrumented)
		if strings.HasPrefix(name, "t1.") || strings.HasPrefix(name, "t2.") {
			if !fr.Detected {
				t.Errorf("tap fault %s still undetected after control point", name)
			}
		}
	}
	t.Logf("after DFT: %s", after.Summary())
}

func TestObservePoint(t *testing.T) {
	c := DemoCircuit()
	instrumented, err := Insert(c, []Point{{Signal: "an", Kind: Observe}})
	if err != nil {
		t.Fatal(err)
	}
	if err := instrumented.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := instrumented.SignalID("tp_an"); !ok {
		t.Fatal("probe buffer missing")
	}
	found := false
	for _, o := range instrumented.Outputs {
		if instrumented.SignalName(o) == "tp_an" {
			found = true
		}
	}
	if !found {
		t.Fatal("probe not a primary output")
	}
	// Observation cannot reduce coverage.
	before, _ := coverage(t, c)
	after, _ := coverage(t, instrumented)
	if after.Coverage() < before.Coverage() {
		t.Fatalf("observe point reduced coverage: %s vs %s", before.Summary(), after.Summary())
	}
}

func TestControlPointTransparentAtReset(t *testing.T) {
	c := DemoCircuit()
	instrumented, err := Insert(c, []Point{{Signal: "bc", Kind: Control}})
	if err != nil {
		t.Fatal(err)
	}
	// With enable low the mux must follow the signal: the reset state is
	// stable, which Validate already proved; additionally the mux value
	// equals the controlled signal's value at reset.
	muxID, _ := instrumented.SignalID("tm_bc")
	origID, _ := instrumented.SignalID("bc")
	init := instrumented.InitState()
	if init>>uint(muxID)&1 != init>>uint(origID)&1 {
		t.Fatal("mux not transparent at reset")
	}
}

func TestInsertErrors(t *testing.T) {
	c := DemoCircuit()
	if _, err := Insert(c, []Point{{Signal: "nosuch", Kind: Observe}}); err == nil {
		t.Error("unknown signal accepted")
	}
	if _, err := Insert(c, []Point{{Signal: "req", Kind: Control}}); err == nil {
		t.Error("control point on an input rail accepted")
	}
	if _, err := Insert(c, []Point{
		{Signal: "bc", Kind: Control},
		{Signal: "bc", Kind: Control},
	}); err == nil {
		t.Error("duplicate point accepted")
	}
}

func TestInsertPreservesBehaviour(t *testing.T) {
	// With test inputs held low, the instrumented circuit's CSSG
	// restricted to the original inputs must mirror the original's.
	c := DemoCircuit()
	instrumented, err := Insert(c, []Point{{Signal: "bc", Kind: Control}})
	if err != nil {
		t.Fatal(err)
	}
	g0, err := core.Build(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := core.Build(instrumented, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Walk the original CSSG's edges on the instrumented circuit with
	// the test inputs at 0; the join output must track.
	joinID0, _ := c.SignalID("join")
	joinID1, _ := instrumented.SignalID("join")
	node0, node1 := g0.Init, g1.Init
	path := []uint64{0b01, 0b11, 0b01} // req+, ack+, ack- (req high)
	for _, p := range path {
		n0, ok0 := g0.Succ(node0, p)
		n1, ok1 := g1.Succ(node1, p) // test inputs occupy higher bits: 0
		if !ok0 || !ok1 {
			t.Fatalf("walk diverged in validity: %v %v", ok0, ok1)
		}
		if g0.Nodes[n0]>>uint(joinID0)&1 != g1.Nodes[n1]>>uint(joinID1)&1 {
			t.Fatal("join output diverged with test inputs low")
		}
		node0, node1 = n0, n1
	}
}
