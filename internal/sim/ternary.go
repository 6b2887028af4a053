package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TernaryResult is the outcome of a ternary settling analysis.
type TernaryResult struct {
	State  logic.Vec // final ternary state
	EvalsA int       // gate evaluations made by algorithm A
	EvalsB int       // gate evaluations made by algorithm B
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
// certain.  The result is the fixpoint the Jacobi (synchronous) sweeps
// of the paper reach, so it is deterministic and order-independent;
// only the gates whose inputs changed are re-evaluated (see
// settleInPlace).  An optional single stuck-at or transition fault is
// injected during evaluation.
//
// The input slice is not modified.
func SettleTernary(c *netlist.Circuit, st logic.Vec, f *faults.Fault) TernaryResult {
	return settlePooled(c, st.Clone(), f)
}

// queuePool recycles the event scratch of SettleTernary and
// ApplyVector, which would otherwise allocate the queue and its flags
// on every call.
var queuePool = sync.Pool{New: func() any { return new(eventQueue) }}

// settlePooled settles st, which the caller owns, in place on pooled
// scratch.
func settlePooled(c *netlist.Circuit, st logic.Vec, f *faults.Fault) TernaryResult {
	q := queuePool.Get().(*eventQueue)
	res := settleInPlace(c, st, q, f)
	queuePool.Put(q)
	return res
}

// Event-driven settling.
//
// Both Eichelberger phases are chaotic iterations of a monotone
// operator on the finite ternary lattice, the argument of the header of
// internal/lanevec/events.go at one lane.  Algorithm A replaces a gate
// output by lub(out, eval): the operator is inflationary and monotone,
// so every fair evaluation order reaches the same least fixpoint above
// the start state.  Algorithm B starts from that fixpoint, where every
// gate's eval is at most as uncertain as its output, and assigns
// out = eval: monotonicity keeps that true after every assignment, so B
// only lowers outputs and every fair order reaches the same greatest
// fixpoint below the A state.  A Jacobi sweep is one fair order; the
// levelized worklist is another, so the two settle to the same state.
//
// Fairness is the worklist invariant: a gate outside the queue
// satisfies its phase's fixpoint equation, because it leaves the queue
// only by being evaluated and re-enters it whenever a signal it reads
// changes.  Phase A seeds every gate, so it needs nothing of the start
// state — Machine.InitState starts from a declared reset a fault can
// destabilise, and Step never requires a fixpoint.  Phase B seeds
// exactly the gates whose last A evaluation differed from their settled
// output: that evaluation saw the A fixpoint's inputs (a later input
// change would have re-queued the gate), so every other gate already
// has out = eval.
//
// A transition-faulted gate reads its own output (f∧out, f∨out) with no
// reader edge to itself unless its kind is self-dependent.  That is
// sound because both combinations are idempotent in out: re-evaluated
// after its own update, the gate yields the value it just computed, so
// it still satisfies its phase's equation and its B seed flag holds.
//
// Within a phase a signal changes at most once (A only raises a
// definite value to Φ, B only lowers Φ to a definite value), so a phase
// evaluates at most every gate once plus one reader per reader edge.
// Passing that bound means the monotonicity argument broke, and the
// settle panics.

// eventQueue is the scratch of one event-driven settle: a levelized
// worklist over the circuit's Topology and the per-gate flags.  It is
// prepared for one circuit at a time and re-prepared when the circuit
// changes; a drained queue holds no gate and marks none queued.
type eventQueue struct {
	c       *netlist.Circuit
	topo    *netlist.Topology
	buckets [][]int // per level: gates pending evaluation
	inQ     []bool  // per gate: queued
	stale   []bool  // per gate: last A evaluation differs from the output
	cursor  int     // lowest level that may hold pending gates
	bound   int     // evaluation bound per phase: gates + reader edges
}

// prepare sizes the queue for c.
func (q *eventQueue) prepare(c *netlist.Circuit) {
	if q.c == c {
		return
	}
	topo := c.Topology()
	ng := c.NumGates()
	q.c, q.topo = c, topo
	q.buckets = slices.Grow(q.buckets[:0], topo.MaxLevel+1)[:topo.MaxLevel+1]
	for lv := range q.buckets {
		q.buckets[lv] = q.buckets[lv][:0]
	}
	q.inQ = slices.Grow(q.inQ[:0], ng)[:ng]
	clear(q.inQ)
	q.stale = slices.Grow(q.stale[:0], ng)[:ng]
	q.cursor = len(q.buckets)
	q.bound = ng
	for gi := range c.Gates {
		q.bound += len(topo.Readers[c.Gates[gi].Out])
	}
}

// push queues gate gi unless it is already pending.
func (q *eventQueue) push(gi int) {
	if q.inQ[gi] {
		return
	}
	q.inQ[gi] = true
	lv := q.topo.Level[gi]
	q.buckets[lv] = append(q.buckets[lv], gi)
	if lv < q.cursor {
		q.cursor = lv
	}
}

// drain evaluates pending gates, lowest level first, until the queue is
// empty, with algorithm A's semantics (raise) or B's, and returns the
// number of evaluations.  Every output change queues the signal's
// readers.
func (q *eventQueue) drain(st logic.Vec, f *faults.Fault, raise bool) int {
	c := q.c
	evals := 0
	for q.cursor < len(q.buckets) {
		b := q.buckets[q.cursor]
		n := len(b)
		if n == 0 {
			q.cursor++
			continue
		}
		gi := b[n-1]
		q.buckets[q.cursor] = b[:n-1]
		q.inQ[gi] = false
		if evals++; evals > q.bound {
			panic(fmt.Sprintf("sim: ternary settling did not converge on %s (internal monotonicity bug)", c.Name))
		}
		out := c.Gates[gi].Out
		v := evalFaulty(c, gi, st, f)
		if raise {
			lub := logic.Lub(st[out], v)
			q.stale[gi] = v != lub
			v = lub
		}
		if v == st[out] {
			continue
		}
		st[out] = v
		for _, ri := range q.topo.Readers[out] {
			q.push(ri)
		}
	}
	return evals
}

// settleInPlace is the settling core behind SettleTernary and
// SettleBuf: it settles st in place, using q as scratch, and returns it
// as the result's State.
func settleInPlace(c *netlist.Circuit, st logic.Vec, q *eventQueue, f *faults.Fault) TernaryResult {
	q.prepare(c)
	// Algorithm A: monotonically increasing in the information order.
	for gi := range c.Gates {
		q.push(gi)
	}
	res := TernaryResult{State: st, EvalsA: q.drain(st, f, true)}
	// Algorithm B: monotonically decreasing from the A fixpoint.
	for gi, s := range q.stale {
		if s {
			q.push(gi)
		}
	}
	res.EvalsB = q.drain(st, f, false)
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
	return settlePooled(c, next, f)
}

// SettleBuf holds reusable scratch for repeated ternary settlings.  The
// package-level ApplyVector clones the state on every call, which
// dominates the allocation profile of tight proposal loops like the
// direct-ATPG walk generator (eight candidate vectors per emitted
// cycle, most rejected); a SettleBuf amortises the state and the event
// queue across calls.  The zero value is ready to use and a single
// buffer may serve circuits of different sizes.
type SettleBuf struct {
	st logic.Vec
	q  eventQueue
}

// ApplyVector is the scratch-reusing variant of the package-level
// ApplyVector: identical result, no per-call allocation after the
// first.  The returned State aliases the buffer's scratch — it is valid
// only until the next call on the same buffer, and callers keeping the
// state must copy it out.  st is not modified, but it must not alias a
// State previously returned by this buffer (the settle would overwrite
// it).
func (b *SettleBuf) ApplyVector(c *netlist.Circuit, st logic.Vec, pattern uint64, f *faults.Fault) TernaryResult {
	n := c.NumSignals()
	if cap(b.st) < n {
		b.st = make(logic.Vec, n)
	}
	cur := b.st[:n]
	copy(cur, st)
	for i := 0; i < c.NumInputs(); i++ {
		cur[i] = logic.FromBool(pattern>>uint(i)&1 == 1)
	}
	return settleInPlace(c, cur, &b.q, f)
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
