package lanevec

//go:generate go run gen.go

import (
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// pinOverride forces one input pin of a gate to a constant in the lanes
// named by Mask: the pin perceives One (or zero) regardless of the
// driving signal — the input stuck-at model.
type pinOverride[V Vec[V]] struct {
	Pin  int
	Mask V
	One  bool // stuck value
}

// outOverride forces a gate's output to a constant per lane.
type outOverride[V Vec[V]] struct {
	m1 V // lanes whose output is stuck at 1
	m0 V // lanes whose output is stuck at 0
}

// dirOverride makes a gate's output directional per lane: in fall
// lanes the output may only fall (the slow-to-rise gross gate-delay
// model, out' = f(ins) ∧ out), in rise lanes it may only rise
// (slow-to-fall, out' = f(ins) ∨ out).  The kernels read the gate's
// own previous output from the possibility vectors, exactly like the
// C-gate self input, so the directional gate remembers which way it
// has already moved: once a slow-to-rise output falls it can never
// rise again, as the materialised f∧self gate of faults.Apply behaves.
type dirOverride[V Vec[V]] struct {
	fall V // lanes whose output may only fall (slow to rise)
	rise V // lanes whose output may only rise (slow to fall)
}

// Engine is the generic bit-parallel ternary machine: one circuit
// simulated across the lanes of V, each signal held as two possibility
// vectors (p1 bit l set: "in lane l the signal may be 1"; p0: "may be
// 0"; both: Φ).  Every operation is lanewise, so the lane columns
// evolve completely independently and each converges to exactly the
// scalar SettleTernary fixpoint — the differential tests in
// internal/fsim rely on this.
//
// A fault is injected with Inject as an output, pin or directional
// override covering every active lane.  The override masks are per
// lane underneath; the package's own tests drive them lane by lane.
type Engine[V Vec[V]] struct {
	c   *netlist.Circuit
	all V // mask of lanes in use

	inOv  [][]pinOverride[V] // per gate: input-pin stuck-at overrides
	outOv []outOverride[V]   // per gate: output stuck-at overrides
	dirOv []dirOverride[V]   // per gate: directional (transition-fault) overrides
	hasOv []bool             // per gate: any override set
	dirty []int              // gates with any override set (the overridden partition)

	// clean is the complement of dirty: the gates evaluated by the
	// pure kernels.  The sweep and event kernels dispatch off this
	// partition instead of testing hasOv per gate per sweep; it is
	// rebuilt lazily (cleanStale) when the override set changes.
	clean      []int
	cleanStale bool

	p1, p0 []V // current possibility vectors, indexed by signal
	t1, t0 []V // scratch for Jacobi sweeps

	// Event-driven settling state (nil until InitEvents); chg holds the
	// per-lane activity mask accumulated per signal since ClearActivity.
	ev  *eventState
	chg []V

	initW []uint64 // cached multi-word initial state (lazily built)

	evals int64 // cumulative gate evaluations (sweep + event kernels)
}

// NewEngine builds an engine for the circuit with no lanes active and
// no overrides; call SetAll (and the override setters) before Reset.
func NewEngine[V Vec[V]](c *netlist.Circuit) *Engine[V] {
	n := c.NumSignals()
	return &Engine[V]{
		c:          c,
		inOv:       make([][]pinOverride[V], c.NumGates()),
		outOv:      make([]outOverride[V], c.NumGates()),
		dirOv:      make([]dirOverride[V], c.NumGates()),
		hasOv:      make([]bool, c.NumGates()),
		clean:      make([]int, 0, c.NumGates()),
		cleanStale: true,
		p1:         make([]V, n),
		p0:         make([]V, n),
		t1:         make([]V, n),
		t0:         make([]V, n),
	}
}

// Circuit returns the simulated circuit.
func (e *Engine[V]) Circuit() *netlist.Circuit { return e.c }

// All returns the active-lane mask.
func (e *Engine[V]) All() V { return e.all }

// SetAll selects the active lanes (typically FirstN of the lane count).
func (e *Engine[V]) SetAll(all V) { e.all = all }

// Inject selects the fault the engine simulates in every active lane
// (nil: the good machine), replacing any previous one.  A stuck-at
// output becomes an output override, a stuck-at input pin a pin
// override, and a transition fault a directional override
// (slow-to-rise: the output may only fall, and dually).  Call SetAll
// first: the overrides cover the lanes active at injection.
func (e *Engine[V]) Inject(f *faults.Fault) {
	e.ClearOverrides()
	if f == nil {
		return
	}
	all := e.All()
	var zero V
	switch f.Type {
	case faults.OutputSA:
		if f.Value == logic.One {
			e.orOutOverride(f.Gate, all, zero)
		} else {
			e.orOutOverride(f.Gate, zero, all)
		}
	case faults.SlowRise:
		e.orDirOverride(f.Gate, all, zero)
	case faults.SlowFall:
		e.orDirOverride(f.Gate, zero, all)
	default:
		e.addPinOverride(f.Gate, f.Pin, all, f.Value == logic.One)
	}
}

// addPinOverride makes input pin `pin` of gate gi perceive the constant
// `one` in the lanes of mask.
func (e *Engine[V]) addPinOverride(gi, pin int, mask V, one bool) {
	e.markDirty(gi)
	e.inOv[gi] = append(e.inOv[gi], pinOverride[V]{Pin: pin, Mask: mask, One: one})
}

// orOutOverride sticks gate gi's output at 1 in the lanes of m1 and at
// 0 in the lanes of m0, accumulating over previous calls.
func (e *Engine[V]) orOutOverride(gi int, m1, m0 V) {
	e.markDirty(gi)
	e.outOv[gi].m1 = e.outOv[gi].m1.Or(m1)
	e.outOv[gi].m0 = e.outOv[gi].m0.Or(m0)
}

// orDirOverride makes gate gi's output directional per lane,
// accumulating over previous calls: in the lanes of fall the output may
// only fall (slow-to-rise: out' = f(ins) ∧ out), in the lanes of rise
// it may only rise (slow-to-fall: out' = f(ins) ∨ out).  The kernels
// read the gate's own previous output like a C-gate self input; the
// exactness of the masked form against the materialised f∧self /
// f∨self gate relies on every self-dependent gate kind being monotone
// in its self input (true for C, the only such kind), which the
// transition-fault differential tests in internal/fsim pin down.
func (e *Engine[V]) orDirOverride(gi int, fall, rise V) {
	e.markDirty(gi)
	e.dirOv[gi].fall = e.dirOv[gi].fall.Or(fall)
	e.dirOv[gi].rise = e.dirOv[gi].rise.Or(rise)
}

func (e *Engine[V]) markDirty(gi int) {
	if e.hasOv[gi] {
		return
	}
	e.hasOv[gi] = true
	e.dirty = append(e.dirty, gi)
	e.cleanStale = true
}

// ClearOverrides removes every override in O(overridden gates), so a
// reused engine can switch faults cheaply.
func (e *Engine[V]) ClearOverrides() {
	var zeroOut outOverride[V]
	var zeroDir dirOverride[V]
	for _, gi := range e.dirty {
		e.inOv[gi] = e.inOv[gi][:0]
		e.outOv[gi] = zeroOut
		e.dirOv[gi] = zeroDir
		e.hasOv[gi] = false
	}
	if len(e.dirty) > 0 {
		e.cleanStale = true
	}
	e.dirty = e.dirty[:0]
}

// partition rebuilds the clean gate list after the override set
// changed.  Gate order within a partition is irrelevant: the sweeps are
// Jacobi (double-buffered) and the event phases are confluent, so the
// settled state is identical to the old per-gate hasOv dispatch.
func (e *Engine[V]) partition() {
	if !e.cleanStale {
		return
	}
	e.cleanStale = false
	e.clean = e.clean[:0]
	for gi := 0; gi < e.c.NumGates(); gi++ {
		if !e.hasOv[gi] {
			e.clean = append(e.clean, gi)
		}
	}
}

// GateEvals returns the cumulative number of gate evaluations this
// engine has performed (sweep and event kernels alike) — the work
// metric the event-driven engine exists to shrink.
func (e *Engine[V]) GateEvals() int64 { return e.evals }

// LoadInit loads the circuit's declared initial state into every
// active lane without settling — event-driven callers seed the queue
// and run the phases themselves.
func (e *Engine[V]) LoadInit() {
	if e.initW == nil {
		e.initW = e.c.InitWords()
	}
	var zero V
	for s := 0; s < e.c.NumSignals(); s++ {
		if e.initW[s>>6]>>uint(s&63)&1 == 1 {
			e.p1[s], e.p0[s] = e.all, zero
		} else {
			e.p1[s], e.p0[s] = zero, e.all
		}
	}
}

// Reset loads the circuit's declared initial state into every active
// lane and settles (a fault can destabilise the reset state).
func (e *Engine[V]) Reset() {
	e.LoadInit()
	e.Settle()
}

// ApplyRails drives the primary-input rails with per-lane values and
// settles: rails[i] holds the lane vector of input i (bit l = the value
// lane l applies this cycle).  One synchronous test cycle for all lanes
// at once.
func (e *Engine[V]) ApplyRails(rails []V) {
	for i := 0; i < e.c.NumInputs(); i++ {
		w := rails[i].And(e.all)
		e.p1[i], e.p0[i] = w, e.all.AndNot(w)
	}
	e.Settle()
}

// ApplyRailsX drives the primary-input rails with per-lane *ternary*
// values and settles: input i is possibly-1 in the lanes of r1[i] and
// possibly-0 in the lanes of r0[i], so a lane with both bits set
// applies X to that input.  This is the partial-assignment cycle the
// deterministic (PODEM) phase needs: unassigned inputs stay X and the
// settle computes exactly the ternary implication closure of the
// assignment, lanewise.  Lanes where an input is in neither vector
// would encode the empty value; callers must keep r1∪r0 ⊇ all.
func (e *Engine[V]) ApplyRailsX(r1, r0 []V) {
	for i := 0; i < e.c.NumInputs(); i++ {
		e.p1[i] = r1[i].And(e.all)
		e.p0[i] = r0[i].And(e.all)
	}
	e.Settle()
}

// Definite returns the lanes where signal sig is definitely 1 and
// definitely 0 (Φ lanes appear in neither).
func (e *Engine[V]) Definite(sig netlist.SigID) (d1, d0 V) {
	return e.p1[sig].AndNot(e.p0[sig]), e.p0[sig].AndNot(e.p1[sig])
}

// LaneState extracts the ternary state of one lane (tests/debugging).
func (e *Engine[V]) LaneState(lane int) logic.Vec {
	st := make(logic.Vec, e.c.NumSignals())
	for s := range st {
		one := e.p1[s].Has(lane)
		zero := e.p0[s].Has(lane)
		switch {
		case one && zero:
			st[s] = logic.X
		case one:
			st[s] = logic.One
		default:
			st[s] = logic.Zero
		}
	}
	return st
}

// Settle runs parallel algorithm A (information-raising) then parallel
// algorithm B (lowering), Jacobi sweeps, all lanes at once.  This is
// Eichelberger's ternary settling, lanewise: per lane the A fixpoint
// raises every potentially-unstable signal to Φ and B restores the
// signals whose final value is certain under every delay assignment.
//
// The sweep body lives in sweep_gen.go: one kernel per width, all
// rendered from the single template in sweepgen.go, because the
// per-word operations must compile to straight unrolled code (generic
// method calls go through runtime dictionaries and do not inline — a
// ~2.5× tax on the hottest loop in the repository).  The Vec union is
// closed, so this dispatch is exhaustive; it costs one type switch per
// settle call, not per gate.
func (e *Engine[V]) Settle() {
	e.partition()
	switch e := any(e).(type) {
	case *Engine[V1]:
		settle64(e)
	case *Engine[V4]:
		settle256(e)
	}
}

// DetectVs returns the lanes whose primary outputs are definitely
// different from the good response encoded as per-output definite
// vectors (good1[j] bit l set: in lane l output j is definitely 1 in
// the good machine).  A lane is reported only when some output has a
// definite value opposite to a definite good value — detection
// guaranteed under every delay assignment.
func (e *Engine[V]) DetectVs(good1, good0 []V) V {
	var det V
	for j, sig := range e.c.Outputs {
		f1 := e.p1[sig].AndNot(e.p0[sig])
		f0 := e.p0[sig].AndNot(e.p1[sig])
		det = det.Or(f1.And(good0[j])).Or(f0.And(good1[j]))
	}
	return det.And(e.all)
}

// DetectVsOn is DetectVs restricted to the outputs whose indices are
// listed in outs.  The lazily-seeded cone-limited fault path maintains
// only the fault's support signals, so only the outputs inside the
// cone hold meaningful faulty values — and by the cone theorem every
// other output equals the good response anyway, so restricting the
// comparison loses nothing.
func (e *Engine[V]) DetectVsOn(outs []int, good1, good0 []V) V {
	var det V
	for _, j := range outs {
		sig := e.c.Outputs[j]
		f1 := e.p1[sig].AndNot(e.p0[sig])
		f0 := e.p0[sig].AndNot(e.p1[sig])
		det = det.Or(f1.And(good0[j])).Or(f0.And(good1[j]))
	}
	return det.And(e.all)
}
