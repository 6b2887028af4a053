package satpg

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
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
// fault for fault across both engines.
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

	crossEngineCompare(t, c, InputStuckAt, SelectBoth, res.Tests)

	// Program-side measurement accepts the combined universe too.
	sum, err := MeasureProgramCoverage(c, Programs(g, res), InputStuckAt, Options{Faults: SelectBoth})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != len(both) {
		t.Fatalf("program coverage total %d, want %d", sum.Total, len(both))
	}
}

func mustBenchmark(t *testing.T, ref string) *Circuit {
	t.Helper()
	c, err := LoadBenchmark(ref)
	if err != nil {
		t.Fatalf("benchmark %s: %v", ref, err)
	}
	return c
}

// A pre-cancelled context returns within one batch or search boundary
// with a structurally valid partial result in both flows.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, flow := range []Flow{FlowCSSG, FlowDirect} {
		c := mustBenchmark(t, "si/chu150")
		res, err := Run(ctx, c, InputStuckAt, Options{Flow: flow, Faults: SelectBoth})
		if err == nil {
			t.Fatalf("flow=%s: cancelled Run returned no error", flow)
		}
		if res == nil {
			t.Fatalf("flow=%s: cancelled Run returned no partial result", flow)
		}
		if res.Total == 0 {
			t.Fatalf("flow=%s: partial result lost the universe", flow)
		}
		for fi, fr := range res.PerFault {
			if fr.Detected && (fr.TestIndex < 0 || fr.TestIndex >= len(res.Tests)) {
				t.Fatalf("flow=%s: fault %d claims out-of-range test %d", flow, fi, fr.TestIndex)
			}
		}
	}
}

// Cancelling mid-run returns promptly and leaks no goroutines: the
// direct flow's walk-generation workers and the fault-sim shards must
// all drain.
func TestRunCancellationStopsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	c := loadCorpus(t, "s953.ckt")
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		// A deliberately huge workload: only cancellation ends it early.
		res, runErr = Run(ctx, c, InputStuckAt, Options{
			Flow: FlowDirect, Faults: SelectBoth,
			RandomSequences: 1 << 16, RandomLength: 48,
		})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Run did not return within 30s")
	}
	if runErr == nil {
		t.Fatal("cancelled Run reported success on a workload sized to outlive the test")
	}
	if res == nil || res.Total == 0 {
		t.Fatal("cancelled Run returned no partial result")
	}
	// Goroutines wind down asynchronously after the flow returns; allow
	// a grace period before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, runtime.NumGoroutine())
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"negative workers", Options{FaultSimWorkers: -1}},
		{"unknown flow", Options{Flow: Flow(9)}},
		{"negative K", Options{K: -1}},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opts)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	c := mustBenchmark(t, "fig1a")
	if _, err := Run(context.Background(), c, InputStuckAt, Options{FaultSimWorkers: -1}); err == nil {
		t.Error("Run accepted a negative worker count")
	}
}
