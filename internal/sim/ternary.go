package sim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TernaryResult is the outcome of a ternary settling analysis.
type TernaryResult struct {
	State   logic.Vec // final ternary state
	SweepsA int       // Jacobi sweeps used by algorithm A
	SweepsB int       // Jacobi sweeps used by algorithm B
}

// Definite reports whether every signal settled to 0 or 1.  Per §5.4, a
// fully definite result means the applied vector has a unique successor
// state under every delay assignment; any Φ means a potential critical
// race, oscillation, or over-long settling.
func (r TernaryResult) Definite() bool { return r.State.AllDefinite() }

// evalFaulty evaluates gate gi in ternary state st with an optional
// stuck-at or transition fault injected.  A transition fault combines
// the gate's function with its own previous output (slow-to-rise:
// f ∧ out, slow-to-fall: f ∨ out) — the same ternary value the
// materialised f∧self table of faults.Apply produces, because every
// self-dependent gate kind is monotone in its self input (the
// differential tests in internal/fsim pin the equivalence down).
func evalFaulty(c *netlist.Circuit, gi int, st logic.Vec, f *faults.Fault) logic.V {
	if f != nil && f.Gate == gi {
		switch f.Type {
		case faults.OutputSA:
			return f.Value
		case faults.SlowRise:
			return logic.And(c.EvalTernary(gi, st), st[c.Gates[gi].Out])
		case faults.SlowFall:
			return logic.Or(c.EvalTernary(gi, st), st[c.Gates[gi].Out])
		}
		return c.EvalTernaryPinned(gi, st, f.Pin, f.Value)
	}
	return c.EvalTernary(gi, st)
}

// SettleTernary runs Eichelberger's ternary simulation from the given
// ternary state (primary-input rails must be definite and are held
// constant).  Algorithm A raises each gate output to the least upper
// bound of its current value and its excitation function, propagating Φ
// through every potentially-unstable signal; algorithm B then lowers each
// output to its function value, restoring signals whose final value is
// certain.  Jacobi (synchronous) sweeps are used, so the result is
// deterministic and order-independent.  An optional single stuck-at or
// transition fault is injected during evaluation.
//
// The input slice is not modified.
func SettleTernary(c *netlist.Circuit, st logic.Vec, f *faults.Fault) TernaryResult {
	return settleInPlace(c, st.Clone(), make(logic.Vec, c.NumSignals()), f)
}

// settleInPlace is the settling core behind SettleTernary and
// SettleBuf: it consumes cur as the starting state, uses next as
// scratch, and returns a result whose State is whichever of the two
// buffers holds the fixpoint.  Both buffers are clobbered.
func settleInPlace(c *netlist.Circuit, cur, next logic.Vec, f *faults.Fault) TernaryResult {
	maxSweeps := 2*c.NumSignals() + 4

	var res TernaryResult
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

// TernaryFromPacked expands a packed binary state into a definite ternary
// vector.
func TernaryFromPacked(c *netlist.Circuit, state uint64) logic.Vec {
	return logic.FromBits(state, c.NumSignals())
}

// ApplyVector sets the primary-input rails of a ternary state to the
// given pattern (bit i = input i) and settles.  This is one synchronous
// test cycle of the paper's abstraction.
func ApplyVector(c *netlist.Circuit, st logic.Vec, pattern uint64, f *faults.Fault) TernaryResult {
	next := st.Clone()
	for i := 0; i < c.NumInputs(); i++ {
		next[i] = logic.FromBool(pattern>>uint(i)&1 == 1)
	}
	return SettleTernary(c, next, f)
}

// SettleBuf holds reusable scratch for repeated ternary settlings.  The
// package-level ApplyVector clones the state and allocates a fresh
// sweep buffer on every call, which dominates the allocation profile of
// tight proposal loops like the direct-ATPG walk generator (eight
// candidate vectors per emitted cycle, most rejected); a SettleBuf
// amortises both buffers across calls.  The zero value is ready to use
// and a single buffer may serve circuits of different sizes.
type SettleBuf struct {
	cur, next logic.Vec
}

// ApplyVector is the scratch-reusing variant of the package-level
// ApplyVector: identical result, no per-call allocation after the
// first.  The returned State aliases the buffer's scratch — it is valid
// only until the next call on the same buffer, and callers keeping the
// state must copy it out.  st is not modified, but it must not alias a
// State previously returned by this buffer (a rejected retry would read
// its own clobbered scratch).
func (b *SettleBuf) ApplyVector(c *netlist.Circuit, st logic.Vec, pattern uint64, f *faults.Fault) TernaryResult {
	n := c.NumSignals()
	if cap(b.cur) < n {
		b.cur = make(logic.Vec, n)
		b.next = make(logic.Vec, n)
	}
	cur, next := b.cur[:n], b.next[:n]
	copy(cur, st)
	for i := 0; i < c.NumInputs(); i++ {
		cur[i] = logic.FromBool(pattern>>uint(i)&1 == 1)
	}
	res := settleInPlace(c, cur, next, f)
	// settleInPlace swaps the buffers internally; re-home them so the
	// next call reuses both regardless of sweep parity.
	if &res.State[0] == &next[0] {
		b.cur, b.next = b.next, b.cur
	}
	return res
}

// Machine is a scalar ternary machine for one (possibly faulty) circuit,
// used by the state-differentiation search of the ATPG.  States are
// immutable ternary vectors, so machines can be branched freely.
type Machine struct {
	C     *netlist.Circuit
	Fault *faults.Fault // nil for the good circuit
}

// InitState settles the circuit's initial state under the machine's
// fault (a fault can make the declared reset state unstable).  The
// scalar machine is size-agnostic: it reads the declared ternary init
// vector directly, so it serves as the oracle for circuits past the
// single-word ceiling too.
func (m Machine) InitState() logic.Vec {
	return SettleTernary(m.C, m.C.Init, m.Fault).State
}

// Step applies one synchronous test vector and returns the settled state.
func (m Machine) Step(st logic.Vec, pattern uint64) logic.Vec {
	return ApplyVector(m.C, st, pattern, m.Fault).State
}

// Outputs extracts the primary outputs of a state.
func (m Machine) Outputs(st logic.Vec) logic.Vec {
	return m.C.OutputVec(st)
}

// PackOutputs packs the definitely-1 primary outputs of a state into a
// word (output j at bit j) — the encoding of test responses.
func (m Machine) PackOutputs(st logic.Vec) uint64 {
	var w uint64
	for j, s := range m.C.Outputs {
		if st[s] == logic.One {
			w |= 1 << uint(j)
		}
	}
	return w
}
