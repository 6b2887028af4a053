package sim

import (
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// SettleSweeps exposes the Jacobi reference settle to the external test
// package, which can import randckt and the circuit suites (both import
// sim themselves).
func SettleSweeps(c *netlist.Circuit, st logic.Vec, f *faults.Fault) logic.Vec {
	return settleSweeps(c, st, f).State
}
