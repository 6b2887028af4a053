package tester

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
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

func buildAll(t testing.TB, src string) (*netlist.Circuit, *core.CSSG) {
	t.Helper()
	c, err := netlist.ParseString(src, "t.ckt")
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func programFor(g *core.CSSG, tst atpg.Test) Program {
	return Program{
		Patterns:      tst.Patterns,
		Expected:      tst.Expected,
		ResetExpected: g.OutputsOf(g.Init),
	}
}

// The central §2/§6 claim: vectors generated under the unbounded delay
// model work for EVERY bounded delay assignment.  The good circuit must
// reproduce the CSSG-predicted responses under random delays, and each
// faulty circuit must mismatch in every trial of its covering test.
func TestVectorsDelayIndependent(t *testing.T) {
	c, g := buildAll(t, pipe2Src)
	res, _ := atpg.RunUniverseCtx(context.Background(), g, faults.InputSA, faults.Universe(g.C, faults.InputSA), atpg.Options{Seed: 1})
	cycle := CycleFor(g.Stats.MaxSettleDepth, 1.5)
	for ti, tst := range res.Tests {
		prog := programFor(g, tst)
		matched, mismatched := MonteCarlo(c, prog, 25, int64(100+ti), cycle)
		if mismatched != 0 {
			t.Fatalf("test %d: good circuit mismatched %d/25 delay assignments", ti, mismatched)
		}
		if matched != 25 {
			t.Fatalf("test %d: matched=%d", ti, matched)
		}
	}
	for _, fr := range res.PerFault {
		if !fr.Detected {
			continue
		}
		fc := faults.Apply(c, fr.Fault)
		prog := programFor(g, res.Tests[fr.TestIndex])
		_, mismatched := MonteCarlo(fc, prog, 25, 7, cycle)
		if mismatched != 25 {
			t.Fatalf("fault %s: only %d/25 delay assignments detected it",
				fr.Fault.Describe(c), mismatched)
		}
	}
}

func TestBenchmarkCircuitDelayIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo over a benchmark circuit is not short")
	}
	cc, err := circuits.Lookup("si/chu150")
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(cc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := atpg.RunUniverseCtx(context.Background(), g, faults.OutputSA, faults.Universe(g.C, faults.OutputSA), atpg.Options{Seed: 1})
	cycle := CycleFor(g.Stats.MaxSettleDepth, 1.5)
	for ti, tst := range res.Tests {
		if ti >= 4 {
			break
		}
		prog := programFor(g, tst)
		if _, mismatched := MonteCarlo(cc, prog, 10, 3, cycle); mismatched != 0 {
			t.Fatalf("good chu150 mismatched on test %d", ti)
		}
	}
}

func TestInertialFiltering(t *testing.T) {
	// y = AND(a, n), n = NOT(a): a static-0 function that can glitch on
	// a+.  Whatever the delays, the sampled output must be 0.
	src := `
circuit glitch
input a
output y
gate n NOT a
gate y AND a n
init a=0 n=1 y=0
`
	c, err := netlist.ParseString(src, "glitch.ckt")
	if err != nil {
		t.Fatal(err)
	}
	prog := Program{Patterns: []uint64{1, 0, 1}, Expected: []uint64{0, 0, 0}, ResetExpected: 0}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		delays := RandomDelays(c, rng, 0.5, 1.5)
		res := Simulate(c, prog, delays, 50)
		if !res.Matches() {
			t.Fatalf("glitch circuit leaked a pulse into a sample: %+v (delays %v)", res, delays)
		}
		if !res.Quiescent {
			t.Fatalf("glitch circuit should be quiescent at sampling")
		}
	}
}

func TestOscillatorNotQuiescent(t *testing.T) {
	src := `
circuit osc
input A
output d
gate c NAND A d
gate d BUF  c
init A=0 c=1 d=1
`
	c, err := netlist.ParseString(src, "osc.ckt")
	if err != nil {
		t.Fatal(err)
	}
	prog := Program{Patterns: []uint64{1}, Expected: []uint64{0}, ResetExpected: 0b11}
	delays := []float64{1, 1.1, 0.9}
	res := Simulate(c, prog, delays, 40)
	if res.Quiescent {
		t.Fatal("oscillator cannot be quiescent after A+")
	}
}

func TestSimulateFaultyResetSettles(t *testing.T) {
	// An output-SA fault destabilises the declared reset state; the
	// timed simulator must settle it during the reset cycle.
	c, _ := buildAll(t, pipe2Src)
	c1ID, _ := c.SignalID("c1")
	f := faults.Fault{Type: faults.OutputSA, Gate: c.GateOf(c1ID), Pin: -1, Value: logic.One}
	fc := faults.Apply(c, f)
	prog := Program{Patterns: nil, Expected: nil, ResetExpected: 0}
	res := Simulate(fc, prog, RandomDelays(fc, rand.New(rand.NewSource(1)), 0.5, 1.5), 100)
	if res.AtReset&1 != 1 {
		t.Fatalf("faulty c1 must read 1 after reset settling, got %b", res.AtReset)
	}
	if res.Mismatch != -2 {
		t.Fatalf("reset mismatch should be flagged, got %d", res.Mismatch)
	}
}

func TestFormat(t *testing.T) {
	c, g := buildAll(t, pipe2Src)
	prog := Program{Patterns: []uint64{1}, Expected: []uint64{1}, ResetExpected: g.OutputsOf(g.Init)}
	text := Format(c, prog)
	if !strings.Contains(text, "circuit pipe2") || !strings.Contains(text, "reset ->") {
		t.Errorf("unexpected format:\n%s", text)
	}
}
