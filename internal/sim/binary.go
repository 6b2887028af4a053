// Package sim provides the scalar simulation engines of the paper:
//
//   - binary simulation under the unbounded gate-delay model (gates fire
//     one at a time; used by the TCSG/CSSG builder and for Monte-Carlo
//     delay experiments), and
//   - Eichelberger ternary simulation (algorithms A and B, §5.4), the
//     conservative race/oscillation detector, with stuck-at and
//     transition faults injected one at a time (Machine).
//
// Ternary settling is event-driven: one levelized worklist over the
// circuit's netlist.Topology re-evaluates only the gates whose inputs
// changed, and reaches the fixpoint of the paper's Jacobi sweeps bit for
// bit.  The sweeps survive in the package's tests as the reference the
// settle is checked against.  Every scalar caller — the direct flow's
// walks, PODEM's completions, the oracles — settles through it.
//
// The scalar ternary machine is the oracle the bit-parallel fault
// simulator in internal/fsim is tested against.
package sim

import (
	"math/rand"

	"repro/internal/netlist"
)

// Settle repeatedly fires the lowest-indexed excited gate until the state
// is stable, for at most maxSteps firings.  It returns the final state
// and whether stability was reached.  This realises one particular delay
// assignment; use Explore-style search (package core) or SettleTernary
// for all assignments.
func Settle(c *netlist.Circuit, state uint64, maxSteps int) (uint64, bool) {
	for step := 0; step < maxSteps; step++ {
		fired := false
		for gi := 0; gi < c.NumGates(); gi++ {
			if c.Excited(gi, state) {
				state = c.Fire(gi, state)
				fired = true
				break
			}
		}
		if !fired {
			return state, true
		}
	}
	return state, c.Stable(state)
}

// SettleRandom is Settle with a uniformly random choice among the excited
// gates at every step, realising a random interleaving.
func SettleRandom(c *netlist.Circuit, state uint64, maxSteps int, rng *rand.Rand) (uint64, bool) {
	var excited []int
	for step := 0; step < maxSteps; step++ {
		excited = c.ExcitedGates(state, excited[:0])
		if len(excited) == 0 {
			return state, true
		}
		state = c.Fire(excited[rng.Intn(len(excited))], state)
	}
	return state, c.Stable(state)
}

// SettleRandomW is SettleRandom over a multi-word packed state (updated
// in place).  The excited-gate enumeration order matches the one-word
// path exactly, so a generator seeded identically draws the same
// interleaving on either path.
func SettleRandomW(c *netlist.Circuit, state []uint64, maxSteps int, rng *rand.Rand) ([]uint64, bool) {
	var excited []int
	for step := 0; step < maxSteps; step++ {
		excited = c.ExcitedGatesW(state, excited[:0])
		if len(excited) == 0 {
			return state, true
		}
		c.FireW(excited[rng.Intn(len(excited))], state)
	}
	return state, c.StableW(state)
}
