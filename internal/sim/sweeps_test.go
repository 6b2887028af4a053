package sim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// sweepResult is the outcome of the Jacobi reference settle.
type sweepResult struct {
	State   logic.Vec
	SweepsA int // Jacobi sweeps used by algorithm A
	SweepsB int // Jacobi sweeps used by algorithm B
}

// settleSweeps is the reference the event-driven settle is checked
// against: Eichelberger's algorithms A and B as Jacobi (synchronous)
// sweeps over every gate until nothing changes, each sweep evaluating
// every gate in the previous sweep's state.  st is not modified.
func settleSweeps(c *netlist.Circuit, st logic.Vec, f *faults.Fault) sweepResult {
	cur, next := st.Clone(), make(logic.Vec, len(st))
	maxSweeps := 2*c.NumSignals() + 4

	var res sweepResult
	// Algorithm A: monotonically increasing in the information order.
	for sweep := 0; ; sweep++ {
		if sweep > maxSweeps {
			panic(fmt.Sprintf("sim: algorithm A did not converge on %s (internal monotonicity bug)", c.Name))
		}
		copy(next, cur)
		changed := false
		for gi := 0; gi < c.NumGates(); gi++ {
			out := c.Gates[gi].Out
			v := logic.Lub(cur[out], evalFaulty(c, gi, cur, f))
			if v != next[out] {
				next[out] = v
				changed = true
			}
		}
		cur, next = next, cur
		res.SweepsA = sweep + 1
		if !changed {
			break
		}
	}
	// Algorithm B: monotonically decreasing from the A fixpoint.
	for sweep := 0; ; sweep++ {
		if sweep > maxSweeps {
			panic(fmt.Sprintf("sim: algorithm B did not converge on %s (internal monotonicity bug)", c.Name))
		}
		copy(next, cur)
		changed := false
		for gi := 0; gi < c.NumGates(); gi++ {
			out := c.Gates[gi].Out
			v := evalFaulty(c, gi, cur, f)
			if v != next[out] {
				next[out] = v
				changed = true
			}
		}
		cur, next = next, cur
		res.SweepsB = sweep + 1
		if !changed {
			break
		}
	}
	res.State = cur
	return res
}
