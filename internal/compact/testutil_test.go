package compact

import (
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/tester"
)

// randPrograms draws n random tester programs for the circuit: random
// input vectors, expected responses from the scalar good machine, and
// the settled reset response as ResetExpected (what satpg.Programs
// declares).
func randPrograms(rng *rand.Rand, c *netlist.Circuit, n, maxLen int) []tester.Program {
	good := sim.Machine{C: c}
	resetOut := good.PackOutputs(good.InitState())
	m := c.NumInputs()
	progs := make([]tester.Program, n)
	for i := range progs {
		ln := 1 + rng.Intn(maxLen)
		p := tester.Program{
			Patterns:      make([]uint64, ln),
			Expected:      make([]uint64, ln),
			ResetExpected: resetOut,
		}
		st := good.InitState()
		for cyc := range p.Patterns {
			pat := rng.Uint64() & (1<<uint(m) - 1)
			st = good.Step(st, pat)
			p.Patterns[cyc] = pat
			p.Expected[cyc] = good.PackOutputs(st)
		}
		progs[i] = p
	}
	return progs
}

// programsEqual compares two program lists element for element.
func programsEqual(a, b []tester.Program) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ResetExpected != b[i].ResetExpected ||
			len(a[i].Patterns) != len(b[i].Patterns) {
			return false
		}
		for c := range a[i].Patterns {
			if a[i].Patterns[c] != b[i].Patterns[c] || a[i].Expected[c] != b[i].Expected[c] {
				return false
			}
		}
	}
	return true
}
