package sim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
)

func TestApplyVectorKeepsRailsDefinite(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	res := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 0b11, nil)
	for i := 0; i < c.NumInputs(); i++ {
		if !res.State[i].IsDefinite() {
			t.Fatalf("rail %d became %s", i, res.State[i])
		}
	}
}

func TestSettleRandomOscillatorFails(t *testing.T) {
	c := parseMust(t, oscSrc, "fig1b.ckt")
	rng := rand.New(rand.NewSource(1))
	st := c.WithInputBits(c.InitState(), 1)
	if _, ok := SettleRandom(c, st, 2000, rng); ok {
		t.Fatal("the oscillator cannot stabilise")
	}
	if _, ok := Settle(c, st, 2000); ok {
		t.Fatal("deterministic schedule cannot stabilise the oscillator either")
	}
}

func TestTernarySweepCountsBounded(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	start := TernaryFromPacked(c, c.WithInputBits(c.InitState(), 0b01))
	ref := settleSweeps(c, start, nil)
	bound := 2*c.NumSignals() + 4
	if ref.SweepsA > bound || ref.SweepsB > bound {
		t.Fatalf("sweep counts exceed theory: A=%d B=%d bound=%d", ref.SweepsA, ref.SweepsB, bound)
	}
	if ref.SweepsA < 1 || ref.SweepsB < 1 {
		t.Fatal("sweep counters must be positive")
	}

	// The event settle evaluates every gate once in A, and in each
	// phase at most one reader per reader edge beyond its seeds.
	res := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 0b01, nil)
	if !res.State.Equal(ref.State) {
		t.Fatalf("event settle %s != sweeps %s", res.State, ref.State)
	}
	evalBound := c.NumGates()
	for gi := range c.Gates {
		evalBound += len(c.Topology().Readers[c.Gates[gi].Out])
	}
	if res.EvalsA < c.NumGates() || res.EvalsA > evalBound || res.EvalsB > evalBound {
		t.Fatalf("evaluation counts exceed theory: A=%d B=%d gates=%d bound=%d",
			res.EvalsA, res.EvalsB, c.NumGates(), evalBound)
	}
	// A settled state is stable: settling it again costs one A
	// evaluation per gate and no B evaluation.
	again := SettleTernary(c, res.State, nil)
	if again.EvalsA != c.NumGates() || again.EvalsB != 0 {
		t.Fatalf("re-settling a settled state cost %d/%d gate evaluations, want %d/0",
			again.EvalsA, again.EvalsB, c.NumGates())
	}
}

func TestMachineOnMaterialisedTransitionFault(t *testing.T) {
	// The scalar ternary machine must work on circuits with materialised
	// (self-dependent) transition faults too.
	src := `
circuit inv
input a
output z
gate z NOT a
init a=0 z=1
`
	c := parseMust(t, src, "inv.ckt")
	zID, _ := c.SignalID("z")
	fc := faults.Apply(c, faults.Fault{Type: faults.SlowRise, Gate: c.GateOf(zID), Pin: -1})
	m := Machine{C: fc}
	st := m.InitState()
	st = m.Step(st, 1) // a=1: z falls (allowed)
	if st[zID] != logic.Zero {
		t.Fatalf("z should fall, got %s", st[zID])
	}
	st = m.Step(st, 0) // a=0: z should rise but cannot
	if st[zID] != logic.Zero {
		t.Fatalf("slow-to-rise z must stay 0, got %s", st[zID])
	}
}
