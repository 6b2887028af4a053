package sim_test

// Transition-fault parity at the scalar level: the direct injection
// (Machine.Fault with SlowRise/SlowFall) must agree state-for-state
// with the materialised-circuit oracle of faults.Apply.  The
// bit-parallel engine's directional masks are pinned to the scalar
// machine by the differential tests in internal/fsim.

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// TestScalarTransitionMatchesMaterialised: sim.Machine{C: c, Fault: &f}
// with a transition fault must produce exactly the states of
// sim.Machine{C: faults.Apply(c, f)} — the injected f∧self / f∨self
// combination is the materialised table, on every gate kind randckt
// generates (C elements included).
func TestScalarTransitionMatchesMaterialised(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	const cycles = 8
	tried := 0
	for seed := int64(1); tried < seeds && seed < int64(20*seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		m := c.NumInputs()
		patterns := make([]uint64, cycles)
		for i := range patterns {
			patterns[i] = rng.Uint64() & (1<<uint(m) - 1)
		}
		for _, f := range faults.TransitionUniverse(c) {
			f := f
			inj := sim.Machine{C: c, Fault: &f}
			mat := sim.Machine{C: faults.Apply(c, f)}
			a, b := inj.InitState(), mat.InitState()
			if !a.Equal(b) {
				t.Fatalf("seed %d fault %s: reset state differs:\n inj %s\n mat %s",
					seed, f.Describe(c), a, b)
			}
			for cyc, p := range patterns {
				a, b = inj.Step(a, p), mat.Step(b, p)
				if !a.Equal(b) {
					t.Fatalf("seed %d fault %s cycle %d: state differs:\n inj %s\n mat %s",
						seed, f.Describe(c), cyc, a, b)
				}
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; scalar transition parity exercised nothing")
	}
	t.Logf("scalar-transition-tested %d random circuits", tried)
}
