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
	res := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 0b01, nil)
	bound := 2*c.NumSignals() + 4
	if res.SweepsA > bound || res.SweepsB > bound {
		t.Fatalf("sweep counts exceed theory: A=%d B=%d bound=%d", res.SweepsA, res.SweepsB, bound)
	}
	if res.SweepsA < 1 || res.SweepsB < 1 {
		t.Fatal("sweep counters must be positive")
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
