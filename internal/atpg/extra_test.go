package atpg

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
)

func TestVerifyRejectsNonDetectingTest(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	c1ID, _ := g.C.SignalID("c1")
	f := faults.Fault{Type: faults.OutputSA, Gate: g.C.GateOf(c1ID), Pin: -1, Value: logic.Zero}
	// A do-nothing test: toggle Ra only; c1 never rises, so c1/SA0 stays
	// invisible.
	node, ok := g.Succ(g.Init, 0b10)
	if !ok {
		t.Fatal("Ra+ should be valid from reset")
	}
	tst := Test{Patterns: []uint64{0b10}, Expected: []uint64{g.OutputsOf(node)}}
	if Verify(g, f, tst, Options{}) {
		t.Fatal("Verify accepted a test that cannot detect c1/SA0")
	}
}

func TestTinyFaultySetCapCloses(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := runModel(g, faults.InputSA, Options{Seed: 1, MaxFaultySet: 1, SkipRandom: true})
	if res.Covered+res.Untestable+res.Aborted != res.Total {
		t.Fatalf("accounting broken under MaxFaultySet=1: %s", res.Summary())
	}
}

func TestGenerateTestForInputFaultOnCElement(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	c1ID, _ := g.C.SignalID("c1")
	gi := g.C.GateOf(c1ID)
	// Pin 1 of c1 is the inverter n1; stuck-at-0 keeps c1 from rising.
	f := faults.Fault{Type: faults.InputSA, Gate: gi, Pin: 1, Value: logic.Zero}
	tst, outcome := GenerateTest(g, f, Options{})
	if outcome != OutcomeFound {
		t.Fatalf("outcome %v", outcome)
	}
	verifyTestDetects(t, g, f, tst)
}

func TestResultTestIndicesConsistent(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := runModel(g, faults.InputSA, Options{Seed: 5})
	for i, fr := range res.PerFault {
		if fr.Detected {
			if fr.TestIndex < 0 || fr.TestIndex >= len(res.Tests) {
				t.Fatalf("fault %d has bad test index %d", i, fr.TestIndex)
			}
			if fr.Phase == PhaseNone {
				t.Fatalf("detected fault %d has no phase", i)
			}
		} else if fr.TestIndex != -1 {
			t.Fatalf("undetected fault %d has test index %d", i, fr.TestIndex)
		}
	}
}

func TestTransitionModelSelectorVariants(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	for _, model := range []faults.Type{faults.Transition, faults.SlowRise, faults.SlowFall} {
		res := runModel(g, model, Options{Seed: 1})
		if res.Total != 2*g.C.NumGates() {
			t.Fatalf("model %d universe %d", model, res.Total)
		}
		if res.Coverage() != 1 {
			t.Fatalf("model %d: %s", model, res.Summary())
		}
	}
}

func TestEmptyCSSGEdges(t *testing.T) {
	// fig1b's CSSG has no valid vectors at all: the random phase must be
	// skipped gracefully and every fault resolved by reset observation or
	// proven untestable.
	g := buildCSSG(t, `
circuit fig1b
input A
output d
gate c NAND A d
gate d BUF  c
init A=0 c=1 d=1
`, "fig1b")
	if g.Stats.NumEdges != 0 {
		t.Fatalf("fig1b should have no valid vectors: %s", g.Summary())
	}
	res := runModel(g, faults.OutputSA, Options{Seed: 1})
	if res.Covered+res.Untestable+res.Aborted != res.Total {
		t.Fatal("accounting broken on edgeless CSSG")
	}
	// d/SA0 flips the observable output at reset: detectable even with
	// no vectors.
	dID, _ := g.C.SignalID("d")
	for _, fr := range res.PerFault {
		if fr.Fault.Gate == g.C.GateOf(dID) && fr.Fault.Value == logic.Zero && fr.Fault.Type == faults.OutputSA {
			if !fr.Detected || len(res.Tests[fr.TestIndex].Patterns) != 0 {
				t.Fatalf("d/SA0 should be caught at reset: %+v", fr)
			}
		}
	}
}
