package tester

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
)

const invCkt = `
circuit inv
input a
output z
gate z NOT a
init a=0 z=1
`

func TestMeasureCoverageInverter(t *testing.T) {
	c, err := netlist.ParseString(invCkt, "inv.ckt")
	if err != nil {
		t.Fatal(err)
	}
	prog := Program{
		Patterns:      []uint64{1, 0},
		Expected:      []uint64{0, 1},
		ResetExpected: 1,
	}
	universe := faults.OutputUniverse(c)
	sum, err := MeasureCoverage(c, []Program{prog}, universe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coverage() != 1 {
		t.Fatalf("the two-vector program exposes every output fault of an inverter: got %d/%d",
			sum.Detected, sum.Total)
	}
	// The measurement must agree with the timed Monte-Carlo harness:
	// every covered fault mismatches the program under random delays.
	cycle := CycleFor(4, 1.5)
	for fi, covered := range sum.PerFault {
		if !covered {
			continue
		}
		fc := faults.Apply(c, universe[fi])
		if _, mism := MonteCarlo(fc, prog, 8, 3, cycle); mism != 8 {
			t.Errorf("%s: fsim says covered but %d/8 timed runs matched",
				universe[fi].Describe(c), 8-mism)
		}
	}
}

// The reset verdict must honour the program's declared ResetExpected —
// the value Simulate compares the sampled reset against — not the
// model's own reset response.
func TestMeasureCoverageHonoursResetExpected(t *testing.T) {
	c, err := netlist.ParseString(invCkt, "inv.ckt")
	if err != nil {
		t.Fatal(err)
	}
	universe := faults.OutputUniverse(c)
	var zSA1 int
	found := false
	for i, f := range universe {
		if f.Type == faults.OutputSA && c.Gates[f.Gate].Name == "z" && f.Value == 1 {
			zSA1, found = i, true
		}
	}
	if !found {
		t.Fatal("z/SA1 not in universe")
	}
	// A program that only observes reset.  The good reset has z=1, so
	// against the model's reset z/SA1 is invisible; a tester expecting
	// z=0 at reset, however, flags it (the faulty chip shows z=1).
	prog := Program{ResetExpected: 0}
	sum, err := MeasureCoverage(c, []Program{prog}, universe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.PerFault[zSA1] {
		t.Error("z/SA1 differs from the declared ResetExpected=0 and must be covered")
	}
	honest := Program{ResetExpected: 1}
	sum2, err := MeasureCoverage(c, []Program{honest}, universe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.PerFault[zSA1] {
		t.Error("z/SA1 matches the honest reset expectation and must not be covered by it")
	}
}

func TestMeasureCoverageEmptyProgramSet(t *testing.T) {
	c, err := netlist.ParseString(invCkt, "inv.ckt")
	if err != nil {
		t.Fatal(err)
	}
	universe := faults.OutputUniverse(c)
	sum, err := MeasureCoverage(c, nil, universe, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reset observation alone: good z=1, so z/SA0 and the a-buffer SA1
	// (which forces z to 0) are already visible.
	if sum.Detected == 0 {
		t.Fatal("reset observation must expose some faults of the inverter")
	}
	if sum.Detected == sum.Total {
		t.Fatal("reset observation alone cannot expose every fault")
	}
}

// VerdictsEqual must be exact per-fault equality, not ratio equality.
func TestVerdictsEqual(t *testing.T) {
	a := CoverageSummary{Total: 3, Detected: 1, PerFault: []bool{true, false, false}}
	if !a.VerdictsEqual(a) {
		t.Error("summary not equal to itself")
	}
	// Same ratio, different fault: must differ.
	b := CoverageSummary{Total: 3, Detected: 1, PerFault: []bool{false, true, false}}
	if a.VerdictsEqual(b) {
		t.Error("equal ratios with flipped verdicts reported equal")
	}
	c := CoverageSummary{Total: 2, Detected: 1, PerFault: []bool{true, false}}
	if a.VerdictsEqual(c) {
		t.Error("different universe sizes reported equal")
	}
}
