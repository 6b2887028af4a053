package atpg

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/podem"
	"repro/internal/sim"
)

const pipe2Src = `
circuit pipe2
input Li Ra
output c1 c2
gate n1 NOT c2
gate c1 C Li n1
gate n2 NOT Ra
gate c2 C c1 n2
init Li=0 Ra=0 n1=1 c1=0 n2=1 c2=0
`

// redSrc has a redundant AND term: z = a OR (a AND b) ≡ a, so faults on
// the AND gate's b pin (and on b's buffer) are untestable.
const redSrc = `
circuit red
input a b
output z
gate t AND a b
gate z OR a t
init a=0 b=0 t=0 z=0
`

const invSrc = `
circuit inv
input a
output z
gate z NOT a
init a=0 z=1
`

func buildCSSG(t testing.TB, src, name string) *core.CSSG {
	t.Helper()
	c, err := netlist.ParseString(src, name)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := core.Build(c, core.Options{})
	if err != nil {
		t.Fatalf("cssg: %v", err)
	}
	return g
}

// verifyTestDetects re-simulates a test with the exact-set machine and
// checks the fault is guaranteed-detected, then spot-checks with random
// binary interleavings that real hardware would expose the fault too.
func verifyTestDetects(t *testing.T, g *core.CSSG, f faults.Fault, tst Test) {
	t.Helper()
	if !Verify(g, f, tst, Options{}) {
		t.Fatalf("test does not detect %s: %v", f.Describe(g.C), tst.Patterns)
	}
	// Monte-Carlo: under 10 random delay assignments the faulty circuit
	// must mismatch the expected response at some cycle.
	fc := faults.Apply(g.C, f)
	rng := rand.New(rand.NewSource(42))
	for rep := 0; rep < 10; rep++ {
		st, _ := sim.SettleRandom(fc, fc.InitState(), 100000, rng)
		mismatch := fc.OutputBits(st) != g.OutputsOf(g.Init)
		for cyc, p := range tst.Patterns {
			st, _ = sim.SettleRandom(fc, fc.WithInputBits(st, p), 100000, rng)
			if fc.OutputBits(st) != tst.Expected[cyc] {
				mismatch = true
			}
		}
		if !mismatch {
			t.Fatalf("random delay assignment evades detection of %s", f.Describe(g.C))
		}
	}
}

func TestRunPipelineInputSA(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.InputSA, Options{Seed: 1})
	if res.Total == 0 {
		t.Fatal("empty universe")
	}
	if res.Covered+res.Untestable+res.Aborted != res.Total {
		t.Fatalf("accounting: cov=%d unt=%d ab=%d tot=%d",
			res.Covered, res.Untestable, res.Aborted, res.Total)
	}
	if sum := res.ByPhase[PhaseRandom] + res.ByPhase[PhaseThree] + res.ByPhase[PhaseSim]; sum != res.Covered {
		t.Fatalf("phase counts %d != covered %d", sum, res.Covered)
	}
	if res.Coverage() < 0.9 {
		t.Fatalf("pipeline input-SA coverage unexpectedly low: %s", res.Summary())
	}
	// Soundness: every detected fault's test must detect it under the
	// conservative scalar machine too.
	for _, fr := range res.PerFault {
		if fr.Detected {
			verifyTestDetects(t, g, fr.Fault, res.Tests[fr.TestIndex])
		}
	}
	t.Logf("pipe2 input-SA: %s", res.Summary())
}

// TestDetectionsByTest pins the per-test provenance view: it must be
// the exact inverse of PerFault's TestIndex attribution — every
// detected fault with a credited test appears under that test and
// nowhere else, and tests keep universe-index order within a group.
func TestDetectionsByTest(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.InputSA, Options{Seed: 1})
	byTest := res.DetectionsByTest()
	if len(byTest) != len(res.Tests) {
		t.Fatalf("%d provenance groups for %d tests", len(byTest), len(res.Tests))
	}
	seen := make(map[int]int) // fault index → credited test
	for ti, group := range byTest {
		for i, fi := range group {
			if i > 0 && fi <= group[i-1] {
				t.Fatalf("test %d: fault indices not ascending: %v", ti, group)
			}
			if prev, dup := seen[fi]; dup {
				t.Fatalf("fault %d credited to tests %d and %d", fi, prev, ti)
			}
			seen[fi] = ti
			fr := res.PerFault[fi]
			if !fr.Detected || fr.TestIndex != ti {
				t.Fatalf("fault %d grouped under test %d but PerFault says det=%v test=%d",
					fi, ti, fr.Detected, fr.TestIndex)
			}
		}
	}
	for fi, fr := range res.PerFault {
		if fr.Detected && fr.TestIndex >= 0 {
			if _, ok := seen[fi]; !ok {
				t.Fatalf("detected fault %d (test %d) missing from provenance", fi, fr.TestIndex)
			}
		}
	}
}

func TestRunPipelineOutputSA(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.OutputSA, Options{Seed: 1})
	if res.Covered+res.Untestable+res.Aborted != res.Total {
		t.Fatal("accounting broken")
	}
	// Speed-independent circuits are 100% output stuck-at testable (§6,
	// citing Beerel & Meng); the flow must reproduce this.
	if res.Coverage() != 1 {
		t.Fatalf("SI pipeline must reach 100%% output-SA coverage: %s", res.Summary())
	}
	for _, fr := range res.PerFault {
		if fr.Detected {
			verifyTestDetects(t, g, fr.Fault, res.Tests[fr.TestIndex])
		}
	}
	t.Logf("pipe2 output-SA: %s", res.Summary())
}

func TestRedundantFaultsProvenUntestable(t *testing.T) {
	g := buildCSSG(t, redSrc, "red")
	res := Run(g, faults.InputSA, Options{Seed: 1})
	c := g.C
	tID, _ := c.SignalID("t")
	tGate := c.GateOf(tID)
	for _, fr := range res.PerFault {
		f := fr.Fault
		// Faults on the AND gate's b pin (pin 1) must be untestable.
		if f.Gate == tGate && f.Pin == 1 {
			if !fr.Untestable {
				t.Errorf("%s should be proven untestable, got %+v", f.Describe(c), fr)
			}
		}
	}
	if res.Untestable == 0 {
		t.Error("redundant circuit must have untestable faults")
	}
	if res.Coverage() >= 1 {
		t.Error("redundant circuit cannot reach 100% input-SA coverage")
	}
	t.Logf("red input-SA: %s", res.Summary())
}

func TestDetectionAtResetState(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	zID, _ := g.C.SignalID("z")
	f := faults.Fault{Type: faults.OutputSA, Gate: g.C.GateOf(zID), Pin: -1, Value: logic.Zero}
	tst, outcome := GenerateTest(g, f, Options{})
	if outcome != OutcomeFound {
		t.Fatalf("outcome %v", outcome)
	}
	if len(tst.Patterns) != 0 {
		t.Fatalf("z/SA0 is visible at reset; want empty test, got %v", tst.Patterns)
	}
	verifyTestDetects(t, g, f, tst)
}

func TestGenerateTestShortest(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	zID, _ := g.C.SignalID("z")
	// z/SA1: good z=1 at reset (a=0); need a=1 to see good z=0 vs faulty 1.
	f := faults.Fault{Type: faults.OutputSA, Gate: g.C.GateOf(zID), Pin: -1, Value: logic.One}
	tst, outcome := GenerateTest(g, f, Options{})
	if outcome != OutcomeFound {
		t.Fatalf("outcome %v", outcome)
	}
	if len(tst.Patterns) != 1 || tst.Patterns[0] != 1 {
		t.Fatalf("want single vector a=1, got %v", tst.Patterns)
	}
	verifyTestDetects(t, g, f, tst)
}

func TestActivationStates(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	c1ID, _ := g.C.SignalID("c1")
	f := faults.Fault{Type: faults.OutputSA, Gate: g.C.GateOf(c1ID), Pin: -1, Value: logic.Zero}
	acts := Activation(g, f)
	if len(acts) == 0 {
		t.Fatal("no activation states for c1/SA0")
	}
	for _, id := range acts {
		if g.Nodes[id]>>uint(c1ID)&1 != 1 {
			t.Errorf("activation state %s does not excite c1/SA0", g.C.FormatState(g.Nodes[id]))
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	a := Run(g, faults.InputSA, Options{Seed: 7})
	b := Run(g, faults.InputSA, Options{Seed: 7})
	if a.Covered != b.Covered || a.Untestable != b.Untestable || len(a.Tests) != len(b.Tests) {
		t.Fatalf("nondeterministic: %s vs %s", a.Summary(), b.Summary())
	}
	for i := range a.PerFault {
		if a.PerFault[i].Phase != b.PerFault[i].Phase || a.PerFault[i].Detected != b.PerFault[i].Detected {
			t.Fatalf("fault %d differs between runs", i)
		}
	}
	// Different seed may differ in phase split but must match coverage
	// conclusions (testability is seed-independent).
	c := Run(g, faults.InputSA, Options{Seed: 99})
	if a.Covered != c.Covered || a.Untestable != c.Untestable {
		t.Fatalf("coverage must be seed-independent: %s vs %s", a.Summary(), c.Summary())
	}
}

func TestSkipRandomAblation(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.InputSA, Options{Seed: 1, SkipRandom: true})
	if res.ByPhase[PhaseRandom] != 0 {
		t.Error("SkipRandom must zero the rnd column")
	}
	// FaultSim covers the whole run, the collateral screens of the
	// PODEM and three-phase tests included.
	if len(res.Tests) < 2 || res.FaultSim.Patterns == 0 || res.FaultSim.GateEvals == 0 {
		t.Errorf("%d tests, but FaultSim misses the collateral screens: %+v", len(res.Tests), res.FaultSim)
	}
	full := Run(g, faults.InputSA, Options{Seed: 1})
	if res.Covered != full.Covered {
		t.Errorf("coverage must not depend on the random phase: %d vs %d", res.Covered, full.Covered)
	}

	// The direct flow draws no walks either: PODEM makes every test.
	s27 := parseS27(t)
	for _, m := range []faults.Type{faults.OutputSA, faults.InputSA} {
		res, err := RunDirect(s27, m, faults.Universe(s27, m), Options{Seed: 1, SkipRandom: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.ByPhase[PhaseRandom] != 0 || res.ByPhase[PhasePodem] != len(res.Tests) {
			t.Errorf("direct %v: SkipRandom must leave only PODEM tests, got %d tests and phases %v",
				m, len(res.Tests), res.ByPhase)
		}
		if len(res.Tests) < 2 || res.FaultSim.Patterns == 0 || res.FaultSim.GateEvals == 0 {
			t.Errorf("direct %v: %d tests, fault simulator %+v", m, len(res.Tests), res.FaultSim)
		}
	}
}

func TestSkipFaultSimAblation(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.InputSA, Options{Seed: 1, SkipFaultSim: true})
	if res.ByPhase[PhaseSim] != 0 {
		t.Error("SkipFaultSim must zero the sim column")
	}
	full := Run(g, faults.InputSA, Options{Seed: 1})
	if res.Covered != full.Covered {
		t.Errorf("coverage must not depend on fault dropping: %d vs %d", res.Covered, full.Covered)
	}

	// The direct flow with walks off: each committed PODEM test drops
	// only its target from the simulator, so a fault is covered exactly
	// when its own PODEM test passes the flow's oracle checks.
	s27 := parseS27(t)
	for _, m := range []faults.Type{faults.OutputSA, faults.InputSA, faults.Transition} {
		universe := faults.Universe(s27, m)
		opts := Options{Seed: 1, SkipRandom: true, SkipFaultSim: true}
		res, err := RunDirect(s27, m, universe, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ByPhase[PhaseSim] != 0 {
			t.Errorf("direct %v: SkipFaultSim must zero the sim column", m)
		}
		d := opts.withDefaults()
		pg, err := podem.New(s27, podem.Options{Lanes: d.FaultSimLanes, DecisionBudget: d.PodemBudget, MaxCycles: d.PodemCycles})
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range universe {
			pt, ok := pg.Target(context.Background(), f)
			test := Test{Patterns: pt.Patterns, Expected: pt.Expected}
			want := ok && VerifyDirectGood(s27, test) && VerifyDirect(s27, f, test)
			if res.PerFault[fi].Detected != want {
				t.Errorf("direct %v, %s: covered %v, want %v (whether its own PODEM test passes the oracle)",
					m, f.Describe(s27), res.PerFault[fi].Detected, want)
			}
		}
	}
}

// parseS27 loads the smallest circuit of the ISCAS-class corpus.
func parseS27(t *testing.T) *netlist.Circuit {
	t.Helper()
	src, err := os.ReadFile("../../examples/iscas/s27.ckt")
	if err != nil {
		t.Fatal(err)
	}
	c, err := netlist.ParseString(string(src), "s27")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRandomWalkValidity(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.InputSA, Options{Seed: 3})
	for ti, tst := range res.Tests {
		if len(tst.Patterns) != len(tst.Expected) {
			t.Fatalf("test %d: pattern/expected length mismatch", ti)
		}
		nodes, ok := g.Walk(g.Init, tst.Patterns)
		if !ok {
			t.Fatalf("test %d is not a valid CSSG walk", ti)
		}
		for i, n := range nodes {
			if g.OutputsOf(n) != tst.Expected[i] {
				t.Fatalf("test %d cycle %d: expected outputs wrong", ti, i)
			}
		}
	}
}

func TestTransitionFaultsInverter(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	res := Run(g, faults.Transition, Options{Seed: 1})
	if res.ByPhase[PhaseRandom]+res.ByPhase[PhaseThree]+res.ByPhase[PhaseSim] != res.Covered {
		t.Errorf("phase accounting broken: %s", res.Summary())
	}
	if res.Coverage() != 1 {
		t.Fatalf("all inverter transition faults are testable: %s", res.Summary())
	}
	// The z/STR test must make z rise: from init z=1 it must first fall
	// (a=1) and then rise again (a=0), i.e. at least two vectors.
	for _, fr := range res.PerFault {
		if fr.Fault.Type == faults.SlowRise && fr.Fault.Describe(g.C) == "z/STR" {
			if len(res.Tests[fr.TestIndex].Patterns) < 2 {
				t.Errorf("z/STR needs a launch+capture pair, got %v", res.Tests[fr.TestIndex].Patterns)
			}
		}
	}
}

func TestTransitionFaultsPipeline(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := Run(g, faults.Transition, Options{Seed: 1})
	if res.Covered+res.Untestable+res.Aborted != res.Total {
		t.Fatalf("accounting: %s", res.Summary())
	}
	if res.Total != 2*g.C.NumGates() {
		t.Fatalf("universe size %d", res.Total)
	}
	if res.Coverage() < 0.9 {
		t.Fatalf("pipeline transition coverage too low: %s", res.Summary())
	}
	for _, fr := range res.PerFault {
		if fr.Detected {
			if !Verify(g, fr.Fault, res.Tests[fr.TestIndex], Options{}) {
				t.Fatalf("transition test for %s fails verification", fr.Fault.Describe(g.C))
			}
		}
	}
	t.Logf("pipe2 transition: %s", res.Summary())
}

func TestTransitionFaultMaterialisation(t *testing.T) {
	c, err := netlist.ParseString(invSrc, "inv.ckt")
	if err != nil {
		t.Fatal(err)
	}
	zID, _ := c.SignalID("z")
	gi := c.GateOf(zID)
	str := faults.Apply(c, faults.Fault{Type: faults.SlowRise, Gate: gi, Pin: -1})
	// From z=1 the faulty inverter can fall but never rise back.
	g := &str.Gates[gi]
	if !g.Kind.SelfDependent() {
		t.Fatal("materialised STR gate must be self-dependent")
	}
	aID, _ := str.SignalID("a") // the buffer output the NOT gate reads
	// a=1, z=1: good falls, faulty falls too (falling allowed).
	st := uint64(1)<<uint(aID) | 1<<uint(zID) | 1 // rail, buffer, z all 1
	if str.EvalBinary(gi, st) {
		t.Error("faulty z should fall when a=1")
	}
	// a=0, z=0: good rises, faulty must stay 0.
	if str.EvalBinary(gi, 0) {
		t.Error("faulty z must not rise")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseRandom.String() != "rnd" || PhaseThree.String() != "3-ph" || PhaseSim.String() != "sim" {
		t.Error("phase names must match the paper's columns")
	}
	if PhaseNone.String() != "-" {
		t.Error("PhaseNone should render as -")
	}
}

func TestResultSummaryAndCoverage(t *testing.T) {
	r := &Result{Total: 0}
	if r.Coverage() != 1 {
		t.Error("empty universe coverage is 1")
	}
	g := buildCSSG(t, invSrc, "inv")
	res := Run(g, faults.OutputSA, Options{Seed: 1})
	if res.Summary() == "" {
		t.Error("summary empty")
	}
	if res.Coverage() != 1 {
		t.Errorf("inverter output-SA should be fully testable: %s", res.Summary())
	}
}

func TestAbortedOnTinyCap(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	// With an absurdly small product cap, some fault must abort rather
	// than loop forever; accounting must still close.
	res := Run(g, faults.InputSA, Options{Seed: 1, SkipRandom: true, MaxProductStates: 1})
	if res.Covered+res.Untestable+res.Aborted != res.Total {
		t.Fatal("accounting broken under caps")
	}
	if res.Aborted == 0 {
		t.Skip("no fault aborted even with cap 1 (all detected immediately)")
	}
}
