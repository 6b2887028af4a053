package compact

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/tester"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeNone, ModeReverse, ModeDominance, ModeGreedy, ModeAll} {
		got, ok := ParseMode(m.String())
		if !ok || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := ParseMode("bogus"); ok {
		t.Error("ParseMode accepted bogus keyword")
	}
}

// chainCircuit is the fanout-free AND chain whose dominance closures
// the faults package unit-tests; here it exercises the matrix-verified
// implication path of the compaction pass.
func chainCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(`
circuit chain
input i0 i1 i2 i3
output z
gate a AND i0 i1
gate b AND a i2
gate z AND b i3
init i0=0 i1=0 i2=0 i3=0 a=0 b=0 z=0
`, "chain.ckt")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompactModesOnChain runs every mode on a small program for the
// AND chain: sizes never grow, measured coverage stays bit-identical,
// the kept list is an ascending subset, and the dominance pass
// verifies at least one DominatorClosure implication against the
// matrix (the chain is exactly the shape the closure describes).
func TestCompactModesOnChain(t *testing.T) {
	c := chainCircuit(t)
	universe := faults.InputUniverse(c)
	rng := rand.New(rand.NewSource(3))
	progs := randPrograms(rng, c, 12, 6)
	orig, err := tester.MeasureCoverage(c, progs, universe)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Detected == 0 {
		t.Fatal("test premise broken: random programs detect nothing on the chain")
	}
	impliedSeen := false
	for _, mode := range []Mode{ModeNone, ModeReverse, ModeDominance, ModeGreedy, ModeAll} {
		cr, err := Compact(c, progs, universe, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cr.Before != len(progs) || cr.After != len(cr.Programs) || cr.After > cr.Before {
			t.Fatalf("mode %s: inconsistent sizes before=%d after=%d programs=%d",
				mode, cr.Before, cr.After, len(cr.Programs))
		}
		if mode == ModeNone && cr.After != cr.Before {
			t.Fatalf("ModeNone dropped tests: %d -> %d", cr.Before, cr.After)
		}
		for i, k := range cr.Kept {
			if i > 0 && k <= cr.Kept[i-1] {
				t.Fatalf("mode %s: Kept not strictly ascending: %v", mode, cr.Kept)
			}
			if !programsEqual([]tester.Program{cr.Programs[i]}, []tester.Program{progs[k]}) {
				t.Fatalf("mode %s: Programs[%d] does not match progs[Kept[%d]]", mode, i, i)
			}
		}
		got, err := tester.MeasureCoverage(c, cr.Programs, universe)
		if err != nil {
			t.Fatal(err)
		}
		if !got.VerdictsEqual(orig) {
			t.Fatalf("mode %s: coverage changed: %d/%d vs %d/%d",
				mode, got.Detected, got.Total, orig.Detected, orig.Total)
		}
		if cr.Implied > 0 {
			impliedSeen = true
		}
	}
	if !impliedSeen {
		t.Error("no matrix-verified dominance implication fired on the AND chain")
	}
}

// TestCompactFloorKeepsOneTest pins the guard rail: when the program
// detects nothing, compaction keeps the first test instead of
// returning an empty program (an empty program set is measured against
// the good machine's own reset response, a semantic switch that could
// add detections), and re-compacting the result is a no-op.
func TestCompactFloorKeepsOneTest(t *testing.T) {
	c := chainCircuit(t)
	universe := faults.InputUniverse(c)
	// Programs that detect nothing: expected responses from the good
	// machine, but every pattern holds the reset vector, so no fault is
	// excited into observation... build directly: zero patterns.
	progs := []tester.Program{
		{Patterns: []uint64{0}, Expected: []uint64{0}, ResetExpected: 0},
		{Patterns: []uint64{0, 0}, Expected: []uint64{0, 0}, ResetExpected: 0},
	}
	mx, err := BuildMatrix(c, progs, universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mx.Detected != 0 {
		t.Skipf("premise broken: %d faults detected by the hold-reset program", mx.Detected)
	}
	for _, mode := range []Mode{ModeReverse, ModeDominance, ModeGreedy, ModeAll} {
		cr, err := Compact(c, progs, universe, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cr.Programs) != 1 || cr.Kept[0] != 0 {
			t.Fatalf("mode %s: floor rule kept %v, want [0]", mode, cr.Kept)
		}
		again, err := Compact(c, cr.Programs, universe, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !programsEqual(again.Programs, cr.Programs) {
			t.Fatalf("mode %s: floor result not idempotent", mode)
		}
	}
}

// TestCompactEmptyProgram: compacting an empty program is a no-op.
func TestCompactEmptyProgram(t *testing.T) {
	c := chainCircuit(t)
	cr, err := Compact(c, nil, faults.InputUniverse(c), ModeAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Before != 0 || cr.After != 0 || len(cr.Programs) != 0 {
		t.Fatalf("empty program compacted to %d tests", cr.After)
	}
	if cr.Reduction() != 0 {
		t.Fatalf("empty program reduction %v, want 0", cr.Reduction())
	}
}

// TestMatrixRowsFanOutToClassMembers: structurally equivalent faults
// must carry bit-identical matrix rows (the obligation set is built on
// representatives; this is the property that makes it sufficient).
func TestMatrixRowsFanOutToClassMembers(t *testing.T) {
	c := chainCircuit(t)
	universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)
	rng := rand.New(rand.NewSource(7))
	progs := randPrograms(rng, c, 10, 5)
	mx, err := BuildMatrix(c, progs, universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := faults.Collapse(c, universe)
	for fi := range universe {
		if !mx.Rows[fi].Equal(mx.Rows[cl.Rep[fi]]) {
			t.Errorf("fault %s row differs from its representative %s",
				universe[fi].Describe(c), universe[cl.Rep[fi]].Describe(c))
		}
	}
}
