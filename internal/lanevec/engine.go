package lanevec

import (
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// pinOverride forces one input pin of a gate to a constant in the lanes
// named by Mask: the pin perceives One (or zero) regardless of the
// driving signal — the input stuck-at model.
type pinOverride struct {
	Pin  int
	Mask uint64
	One  bool // stuck value
}

// outOverride forces a gate's output to a constant per lane.
type outOverride struct {
	m1 uint64 // lanes whose output is stuck at 1
	m0 uint64 // lanes whose output is stuck at 0
}

// dirOverride makes a gate's output directional per lane: in fall
// lanes the output may only fall (the slow-to-rise gross gate-delay
// model, out' = f(ins) ∧ out), in rise lanes it may only rise
// (slow-to-fall, out' = f(ins) ∨ out).  The kernels read the gate's
// own previous output from the possibility vectors, exactly like the
// C-gate self input, so the directional gate remembers which way it
// has already moved: once a slow-to-rise output falls it can never
// rise again, as the materialised f∧self gate of faults.Apply behaves.
type dirOverride struct {
	fall uint64 // lanes whose output may only fall (slow to rise)
	rise uint64 // lanes whose output may only rise (slow to fall)
}

// Engine is the bit-parallel ternary machine: one circuit simulated
// across 64 lanes, each signal held as two possibility words (p1 bit l
// set: "in lane l the signal may be 1"; p0: "may be 0"; both: Φ).
// Every operation is lanewise, so the lane columns evolve completely
// independently and each converges to exactly the scalar SettleTernary
// fixpoint — the differential tests in internal/fsim rely on this.
//
// A fault is injected with Inject as an output, pin or directional
// override covering every active lane.  The override masks are per
// lane underneath; the package's own tests drive them lane by lane.
type Engine struct {
	c   *netlist.Circuit
	all uint64 // mask of lanes in use

	inOv  [][]pinOverride // per gate: input-pin stuck-at overrides
	outOv []outOverride   // per gate: output stuck-at overrides
	dirOv []dirOverride   // per gate: directional (transition-fault) overrides
	hasOv []bool          // per gate: any override set
	dirty []int           // gates with any override set (the overridden partition)

	// clean is the complement of dirty: the gates evaluated by the
	// pure kernels.  The sweep and event kernels dispatch off this
	// partition instead of testing hasOv per gate per sweep; it is
	// rebuilt lazily (cleanStale) when the override set changes.
	clean      []int
	cleanStale bool

	p1, p0 []uint64 // current possibility words, indexed by signal
	t1, t0 []uint64 // scratch for Jacobi sweeps

	// Event-driven settling state (nil until InitEvents); chg holds the
	// per-lane activity mask accumulated per signal since ClearActivity.
	ev  *eventState
	chg []uint64

	initW []uint64 // cached multi-word initial state (lazily built)

	evals int64 // cumulative gate evaluations (sweep + event kernels)
}

// NewEngine builds an engine for the circuit with no lanes active and
// no overrides; call SetAll (and the override setters) before Reset.
func NewEngine(c *netlist.Circuit) *Engine {
	n := c.NumSignals()
	return &Engine{
		c:          c,
		inOv:       make([][]pinOverride, c.NumGates()),
		outOv:      make([]outOverride, c.NumGates()),
		dirOv:      make([]dirOverride, c.NumGates()),
		hasOv:      make([]bool, c.NumGates()),
		clean:      make([]int, 0, c.NumGates()),
		cleanStale: true,
		p1:         make([]uint64, n),
		p0:         make([]uint64, n),
		t1:         make([]uint64, n),
		t0:         make([]uint64, n),
	}
}

// Circuit returns the simulated circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// All returns the active-lane mask.
func (e *Engine) All() uint64 { return e.all }

// SetAll selects the active lanes (bit l set: lane l is in use).
func (e *Engine) SetAll(all uint64) { e.all = all }

// Inject selects the fault the engine simulates in every active lane
// (nil: the good machine), replacing any previous one.  A stuck-at
// output becomes an output override, a stuck-at input pin a pin
// override, and a transition fault a directional override
// (slow-to-rise: the output may only fall, and dually).  Call SetAll
// first: the overrides cover the lanes active at injection.
func (e *Engine) Inject(f *faults.Fault) {
	e.ClearOverrides()
	if f == nil {
		return
	}
	all := e.All()
	switch f.Type {
	case faults.OutputSA:
		if f.Value == logic.One {
			e.orOutOverride(f.Gate, all, 0)
		} else {
			e.orOutOverride(f.Gate, 0, all)
		}
	case faults.SlowRise:
		e.orDirOverride(f.Gate, all, 0)
	case faults.SlowFall:
		e.orDirOverride(f.Gate, 0, all)
	default:
		e.addPinOverride(f.Gate, f.Pin, all, f.Value == logic.One)
	}
}

// addPinOverride makes input pin `pin` of gate gi perceive the constant
// `one` in the lanes of mask.
func (e *Engine) addPinOverride(gi, pin int, mask uint64, one bool) {
	e.markDirty(gi)
	e.inOv[gi] = append(e.inOv[gi], pinOverride{Pin: pin, Mask: mask, One: one})
}

// orOutOverride sticks gate gi's output at 1 in the lanes of m1 and at
// 0 in the lanes of m0, accumulating over previous calls.
func (e *Engine) orOutOverride(gi int, m1, m0 uint64) {
	e.markDirty(gi)
	e.outOv[gi].m1 |= m1
	e.outOv[gi].m0 |= m0
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
func (e *Engine) orDirOverride(gi int, fall, rise uint64) {
	e.markDirty(gi)
	e.dirOv[gi].fall |= fall
	e.dirOv[gi].rise |= rise
}

func (e *Engine) markDirty(gi int) {
	if e.hasOv[gi] {
		return
	}
	e.hasOv[gi] = true
	e.dirty = append(e.dirty, gi)
	e.cleanStale = true
}

// ClearOverrides removes every override in O(overridden gates), so a
// reused engine can switch faults cheaply.
func (e *Engine) ClearOverrides() {
	for _, gi := range e.dirty {
		e.inOv[gi] = e.inOv[gi][:0]
		e.outOv[gi] = outOverride{}
		e.dirOv[gi] = dirOverride{}
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
func (e *Engine) partition() {
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
func (e *Engine) GateEvals() int64 { return e.evals }

// LoadInit loads the circuit's declared initial state into every
// active lane without settling — event-driven callers seed the queue
// and run the phases themselves.
func (e *Engine) LoadInit() {
	if e.initW == nil {
		e.initW = e.c.InitWords()
	}
	for s := 0; s < e.c.NumSignals(); s++ {
		if e.initW[s>>6]>>uint(s&63)&1 == 1 {
			e.p1[s], e.p0[s] = e.all, 0
		} else {
			e.p1[s], e.p0[s] = 0, e.all
		}
	}
}

// Reset loads the circuit's declared initial state into every active
// lane and settles (a fault can destabilise the reset state).
func (e *Engine) Reset() {
	e.LoadInit()
	e.Settle()
}

// ApplyRails drives the primary-input rails with per-lane values and
// settles: rails[i] holds the lane word of input i (bit l = the value
// lane l applies this cycle).  One synchronous test cycle for all lanes
// at once.
func (e *Engine) ApplyRails(rails []uint64) {
	for i := 0; i < e.c.NumInputs(); i++ {
		w := rails[i] & e.all
		e.p1[i], e.p0[i] = w, e.all&^w
	}
	e.Settle()
}

// Definite returns the lanes where signal sig is definitely 1 and
// definitely 0 (Φ lanes appear in neither).
func (e *Engine) Definite(sig netlist.SigID) (d1, d0 uint64) {
	return e.p1[sig] &^ e.p0[sig], e.p0[sig] &^ e.p1[sig]
}

// LaneState extracts the ternary state of one lane (tests/debugging).
func (e *Engine) LaneState(lane int) logic.Vec {
	st := make(logic.Vec, e.c.NumSignals())
	for s := range st {
		one := e.p1[s]>>uint(lane)&1 == 1
		zero := e.p0[s]>>uint(lane)&1 == 1
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
func (e *Engine) Settle() {
	e.partition()
	settle(e)
}

// DetectVs returns the lanes whose primary outputs are definitely
// different from the good response encoded as per-output definite
// words (good1[j] bit l set: in lane l output j is definitely 1 in the
// good machine).  A lane is reported only when some output has a
// definite value opposite to a definite good value — detection
// guaranteed under every delay assignment.
func (e *Engine) DetectVs(good1, good0 []uint64) uint64 {
	var det uint64
	for j, sig := range e.c.Outputs {
		det |= (e.p1[sig]&^e.p0[sig])&good0[j] | (e.p0[sig]&^e.p1[sig])&good1[j]
	}
	return det & e.all
}

// DetectVsOn is DetectVs restricted to the outputs whose indices are
// listed in outs.  The lazily-seeded cone-limited fault path maintains
// only the fault's support signals, so only the outputs inside the
// cone hold meaningful faulty values — and by the cone theorem every
// other output equals the good response anyway, so restricting the
// comparison loses nothing.
func (e *Engine) DetectVsOn(outs []int, good1, good0 []uint64) uint64 {
	var det uint64
	for _, j := range outs {
		sig := e.c.Outputs[j]
		det |= (e.p1[sig]&^e.p0[sig])&good0[j] | (e.p0[sig]&^e.p1[sig])&good1[j]
	}
	return det & e.all
}
