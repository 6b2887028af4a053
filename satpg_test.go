package satpg

import (
	"context"
	"strings"
	"testing"
)

// runCSSG is Run forced onto the CSSG flow; the abstraction comes back
// on Result.Graph.
func runCSSG(tb testing.TB, c *Circuit, model FaultModel, opts Options) (*CSSG, *Result) {
	tb.Helper()
	opts.Flow = FlowCSSG
	res, err := Run(context.Background(), c, model, opts)
	if err != nil {
		tb.Fatalf("%s: %v", c.Name, err)
	}
	return res.Graph, res
}

// runDirect is Run forced onto the direct flow.
func runDirect(tb testing.TB, c *Circuit, model FaultModel, opts Options) *Result {
	tb.Helper()
	opts.Flow = FlowDirect
	res, err := Run(context.Background(), c, model, opts)
	if err != nil {
		tb.Fatalf("%s: %v", c.Name, err)
	}
	return res
}

// generate is GenerateCtx on a prebuilt abstraction.
func generate(tb testing.TB, g *CSSG, model FaultModel, opts Options) *Result {
	tb.Helper()
	res, err := GenerateCtx(context.Background(), g, model, opts)
	if err != nil {
		tb.Fatalf("%s: %v", g.C.Name, err)
	}
	return res
}

const tinySrc = `
circuit tiny
input a
output z
gate z NOT a
init a=0 z=1
`

func TestFacadeEndToEnd(t *testing.T) {
	c, err := ParseCircuitString(tinySrc, "tiny.ckt")
	if err != nil {
		t.Fatal(err)
	}
	g, res := runCSSG(t, c, OutputStuckAt, Options{Seed: 1})
	if res.Coverage() != 1 {
		t.Fatalf("inverter must be fully testable: %s", res.Summary())
	}
	for _, fr := range res.PerFault {
		if fr.Detected && fr.TestIndex >= 0 {
			if !VerifyTest(g, fr.Fault, res.Tests[fr.TestIndex]) {
				t.Fatalf("VerifyTest rejected the covering test of %s", fr.Fault.Describe(c))
			}
		}
	}
	if err := ValidateOnTester(g, res, 5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParse(t *testing.T) {
	if _, err := ParseCircuit(strings.NewReader(tinySrc), "tiny.ckt"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCircuitString("garbage", "g.ckt"); err == nil {
		t.Fatal("garbage must not parse")
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if len(SpeedIndependentSuite()) != 24 {
		t.Error("Table-1 suite must have 24 rows")
	}
	if len(HazardFreeSuite()) != 11 {
		t.Error("Table-2 suite must have 11 rows")
	}
	if _, err := LoadBenchmark("si/chu150"); err != nil {
		t.Error(err)
	}
	if _, err := LoadBenchmark("nope"); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestFacadeAnalyze(t *testing.T) {
	c, err := LoadBenchmark("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(c, c.InitState(), 0b11, Options{})
	if an.Class != VectorNonConfluent {
		t.Fatalf("fig1a AB=11 should be non-confluent, got %s", an.Class)
	}
	an = Analyze(c, c.InitState(), 0b00, Options{})
	if an.Class != VectorValid {
		t.Fatalf("fig1a AB=00 should be valid, got %s", an.Class)
	}
}

func TestFacadeUniverse(t *testing.T) {
	c, err := ParseCircuitString(tinySrc, "tiny.ckt")
	if err != nil {
		t.Fatal(err)
	}
	if len(Universe(c, OutputStuckAt)) != 4 { // 2 gates (buffer + NOT) × 2
		t.Errorf("output universe: %d", len(Universe(c, OutputStuckAt)))
	}
	if len(Universe(c, InputStuckAt)) != 4 { // 2 pins × 2
		t.Errorf("input universe: %d", len(Universe(c, InputStuckAt)))
	}
}

func TestTableFormatting(t *testing.T) {
	c, err := ParseCircuitString(tinySrc, "tiny.ckt")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Abstract(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := generate(t, g, OutputStuckAt, Options{Seed: 1})
	in := generate(t, g, InputStuckAt, Options{Seed: 1})
	header := TableHeader()
	row := TableRow("tiny", out, in)
	if len(header) == 0 || len(row) == 0 {
		t.Fatal("empty table strings")
	}
	if !strings.Contains(row, "tiny") {
		t.Errorf("row missing name: %q", row)
	}
}

func TestFacadeProgramsAndFormat(t *testing.T) {
	c, err := LoadBenchmark("si/vbe5b")
	if err != nil {
		t.Fatal(err)
	}
	g, res := runCSSG(t, c, InputStuckAt, Options{Seed: 1})
	progs := Programs(g, res)
	if len(progs) != len(res.Tests) {
		t.Fatal("program count mismatch")
	}
	if len(progs) > 0 {
		text := FormatProgram(c, progs[0])
		if !strings.Contains(text, "circuit vbe5b") {
			t.Errorf("program text: %q", text)
		}
	}
}

func TestFacadeFaultSimBatch(t *testing.T) {
	c, err := LoadBenchmark("si/vbe5b")
	if err != nil {
		t.Fatal(err)
	}
	g, res := runCSSG(t, c, InputStuckAt, Options{Seed: 1})
	rep, err := FaultSimBatch(c, InputStuckAt, res.Tests, Options{FaultSimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != len(Universe(c, InputStuckAt)) {
		t.Fatalf("universe size mismatch: %d", rep.Total)
	}
	// The bit-parallel re-measurement replays the generated tests under
	// the conservative ternary semantics; every detection it claims must
	// hold up on the exact machine too.
	for _, fc := range rep.PerFault {
		if fc.Detected && fc.TestIndex >= 0 {
			if !VerifyTest(g, fc.Fault, res.Tests[fc.TestIndex]) {
				t.Errorf("fsim detection of %s not confirmed exactly", fc.Fault.Describe(c))
			}
		}
	}
	if !strings.Contains(rep.Summary(), "fsim") {
		t.Errorf("summary: %q", rep.Summary())
	}

	sum, err := MeasureProgramCoverage(c, Programs(g, res), InputStuckAt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != rep.Total {
		t.Fatalf("program-side universe mismatch: %d vs %d", sum.Total, rep.Total)
	}
	// Programs carry the same patterns/responses as the tests, so the
	// two measurements must agree fault-for-fault.
	for fi := range sum.PerFault {
		if sum.PerFault[fi] != rep.PerFault[fi].Detected {
			t.Errorf("fault %d: program coverage %v != test coverage %v",
				fi, sum.PerFault[fi], rep.PerFault[fi].Detected)
		}
	}
}

// TestFaultSimLaneWidthsAgreeOnSuite pins the multi-word lane engine to
// the stacked 64-lane runs on the Table-1 benchmarks: for both fault
// models, the per-fault verdicts of FaultSimBatch must be identical at
// 64 and 256 lanes, and the full ATPG flow must produce the same
// result whichever width the random phase batches its walks at.
func TestFaultSimLaneWidthsAgreeOnSuite(t *testing.T) {
	suite := SpeedIndependentSuite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, bm := range suite {
		g, res := runCSSG(t, bm.Circuit, InputStuckAt, Options{Seed: 1})
		for _, model := range []FaultModel{OutputStuckAt, InputStuckAt} {
			base, err := FaultSimBatch(bm.Circuit, model, res.Tests, Options{FaultSimLanes: 64})
			if err != nil {
				t.Fatalf("%s: %v", bm.Name, err)
			}
			rep, err := FaultSimBatch(bm.Circuit, model, res.Tests, Options{FaultSimLanes: 256})
			if err != nil {
				t.Fatalf("%s lanes=256: %v", bm.Name, err)
			}
			for fi := range rep.PerFault {
				if rep.PerFault[fi].Detected != base.PerFault[fi].Detected {
					t.Errorf("%s %v lanes=256: fault %s detected=%v, 64-lane says %v",
						bm.Name, model, rep.PerFault[fi].Fault.Describe(bm.Circuit),
						rep.PerFault[fi].Detected, base.PerFault[fi].Detected)
				}
			}
		}
		// The random phase batches its walks by lane width; the walks,
		// their order, and the exact-machine confirmation are width
		// independent, so the whole ATPG result must be too.
		wide := generate(t, g, InputStuckAt, Options{Seed: 1, FaultSimLanes: 256})
		if wide.Covered != res.Covered || wide.Untestable != res.Untestable ||
			len(wide.Tests) != len(res.Tests) {
			t.Fatalf("%s: 256-lane ATPG diverged: cov %d vs %d, tests %d vs %d",
				bm.Name, wide.Covered, res.Covered, len(wide.Tests), len(res.Tests))
		}
		for p, n := range res.ByPhase {
			if wide.ByPhase[p] != n {
				t.Errorf("%s: phase %v count %d vs %d", bm.Name, p, wide.ByPhase[p], n)
			}
		}
		for i := range res.PerFault {
			if wide.PerFault[i].Detected != res.PerFault[i].Detected ||
				wide.PerFault[i].Phase != res.PerFault[i].Phase ||
				wide.PerFault[i].TestIndex != res.PerFault[i].TestIndex {
				t.Errorf("%s: fault %d verdict diverged across lane widths", bm.Name, i)
			}
		}
	}
}

func TestFacadeSelfCheck(t *testing.T) {
	spec, err := ParseSTGString(`
.model celem
.inputs a b
.outputs z
.graph
a+ z+
b+ z+
z+ a- b-
a- z-
b- z-
z- a+ b+
.marking { <z-,a+> <z-,b+> }
.end
`, "celem.g")
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseCircuitString(`
circuit celem
input a b
output z
gate z C a b
init a=0 b=0 z=0
`, "celem.ckt")
	if err != nil {
		t.Fatal(err)
	}
	conf, err := Conform(c, spec)
	if err != nil || !conf.OK {
		t.Fatalf("conformance: %v %v", err, conf)
	}
	rep, err := SelfCheck(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Halting != rep.Total || len(rep.Escaping) != 0 {
		t.Fatalf("C element must be self-checking: %+v", rep)
	}
}

func TestFacadeBaseline(t *testing.T) {
	c, err := LoadBenchmark("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Abstract(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareBaseline(g, OutputStuckAt)
	if cmp.SyncCovered == 0 || cmp.Optimism() <= 0 {
		t.Fatalf("baseline comparison degenerate: %+v", cmp)
	}
}

// TestFacadeFaultSelections drives the Options.Faults plumbing end to
// end: the combined universe must be the stuck-at list followed by the
// transition list, the full ATPG flow must cover it with exactly
// verified tests, and the batched coverage measurement must agree
// fault for fault across both engines at every lane width.
func TestFacadeFaultSelections(t *testing.T) {
	c, err := LoadBenchmark("si/vbe5b")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Abstract(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saN := len(Universe(c, InputStuckAt))
	trN := len(SelectedUniverse(c, InputStuckAt, SelectTransition))
	both := SelectedUniverse(c, InputStuckAt, SelectBoth)
	if len(both) != saN+trN {
		t.Fatalf("combined universe %d faults, want %d", len(both), saN+trN)
	}

	res := generate(t, g, InputStuckAt, Options{Seed: 1, Faults: SelectBoth})
	if res.Total != len(both) {
		t.Fatalf("ATPG total %d, want %d", res.Total, len(both))
	}
	for i, fr := range res.PerFault {
		if fr.Fault != both[i] {
			t.Fatalf("fault %d reordered", i)
		}
		if fr.Detected && !VerifyTest(g, fr.Fault, res.Tests[fr.TestIndex]) {
			t.Fatalf("test for %s fails exact verification", fr.Fault.Describe(c))
		}
	}
	if res.Coverage() < 0.9 {
		t.Fatalf("combined coverage suspiciously low: %s", res.Summary())
	}

	for _, lanes := range []int{64, 256} {
		crossEngineCompare(t, c, InputStuckAt, SelectBoth, res.Tests, lanes)
	}

	// Program-side measurement accepts the combined universe too.
	sum, err := MeasureProgramCoverage(c, Programs(g, res), InputStuckAt, Options{Faults: SelectBoth})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != len(both) {
		t.Fatalf("program coverage total %d, want %d", sum.Total, len(both))
	}
}
