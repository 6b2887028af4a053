// Event-driven settling: the activity-limited alternative to the full
// Jacobi sweeps.
//
// Both Eichelberger phases are chaotic iterations of a monotone
// operator — phase A only ever adds possibility bits (p[out] |= eval),
// phase B starts from the A fixpoint where eval ⊆ p[out] and, because
// the ternary gate functions are monotone in the information order,
// every re-evaluation can only remove bits.  Chaotic iteration of a
// monotone operator is confluent: any fair evaluation order reaches
// the same least (A) or greatest-below-start (B) fixpoint the Jacobi
// sweeps reach.  That is the correctness backbone of this file — the
// event queue merely chooses a cheap order, it cannot change the
// settled state, so the event engine is bit-identical to the sweeps.
//
// The completeness invariant each phase maintains is: every gate NOT
// in the queue already satisfies its phase's fixpoint equation
// (p[out] ⊇ eval for A, p[out] = eval for B) — which is why callers
// must seed the queue with every gate whose inputs changed since the
// last B fixpoint (MarkSignal accumulates those changes as per-lane
// activity masks in chg; SeedFromActivity turns them into queue
// entries) and why the kernels enqueue the readers of every signal
// they change.  Gates are processed in levelized order (buckets per
// topology level, feedback dropping the cursor back), so feedback-free
// regions settle in a single pass.
//
// The gate mask restricts which gates the queue will ever admit: the
// pattern-parallel fault simulator sets it to the fault's fanout cone,
// because signals outside the cone provably track the fault-free
// machine and are loaded from the cached good trace instead of being
// re-simulated.
package lanevec

import "repro/internal/netlist"

// eventState is the width-independent scheduling state of the event
// kernels: the levelized queue, the admission mask and the per-run
// divergence guard.
type eventState struct {
	topo    *netlist.Topology
	buckets [][]int // per level: gates pending evaluation
	inQ     []bool  // per gate: already queued
	cursor  int     // lowest level that may hold pending gates
	// gateMask is the admission bitset over gates (gate gi at bit
	// gi%64 of word gi/64), Topology.GateWords words wide; allMask is
	// the precomputed admit-everything mask SetGateMask(nil) restores,
	// so the kernels always run one indexed test with no nil branch.
	gateMask []uint64
	allMask  []uint64
	guard    int64 // eval budget per phase run; exceeding it panics
}

// InitEvents prepares the engine for event-driven settling against the
// circuit's structural index.  Idempotent; the sweep paths are
// unaffected.  All gates are admitted until SetGateMask narrows it.
func (e *Engine[V]) InitEvents(topo *netlist.Topology) {
	if e.ev != nil {
		return
	}
	var zero V
	// Per phase, each signal's possibility words can change at most
	// 2×lanes times (every lane bit of p1 and p0 flips at most once —
	// both phases are monotone), so the eval count is bounded by the
	// seeds plus changes × readers.  The guard is a generous multiple;
	// tripping it means the monotonicity reasoning was broken by a bug.
	gates := int64(e.c.NumGates())
	allMask := make([]uint64, topo.GateWords)
	for i := range allMask {
		allMask[i] = ^uint64(0)
	}
	e.ev = &eventState{
		topo:    topo,
		buckets: make([][]int, topo.MaxLevel+1),
		inQ:     make([]bool, e.c.NumGates()),
		allMask: allMask,
		guard:   (2*int64(zero.Size()) + 4) * (gates + 1) * (netlist.MaxLocalInputs + 1),
	}
	e.ev.gateMask = allMask
	e.chg = make([]V, e.c.NumSignals())
}

// SetGateMask restricts event admission to the gates in mask (a gate
// bitset of Topology.GateWords words, gate gi at bit gi%64 of word
// gi/64 — what Topology.GateMaskW produces from a fanout cone); a nil
// mask admits every gate.  The engine keeps a reference: the caller
// must not mutate the mask while settling.
func (e *Engine[V]) SetGateMask(mask []uint64) {
	if mask == nil {
		mask = e.ev.allMask
	}
	e.ev.gateMask = mask
}

// ClearActivity zeroes the per-signal activity masks; call at the
// start of each test cycle, before the MarkSignal swaps.
func (e *Engine[V]) ClearActivity() {
	var zero V
	for i := range e.chg {
		e.chg[i] = zero
	}
}

// ClearActivityOn zeroes the activity masks of the signals in mask
// only.  Valid when every activity bit set since the last clear lies
// inside mask: the cone-limited fault path marks only its support
// signals and its gate mask admits only cone gates (whose outputs are
// support signals too), so clearing the support span is complete.
// O(|mask|) instead of O(signals) — on large circuits with small
// cones this loop is most of what ClearActivity was costing per fault
// per cycle.
func (e *Engine[V]) ClearActivityOn(mask []uint64) {
	var zero V
	netlist.EachSet(mask, nil, nil, func(s netlist.SigID) { e.chg[s] = zero })
}

// MarkSignal assigns signal s the possibility words (m1, m0) and
// accumulates the lanes that actually changed into the activity mask.
// This is how externally-known values — rails, and out-of-cone signals
// served from the cached good trace — enter an event settle.
func (e *Engine[V]) MarkSignal(s netlist.SigID, m1, m0 V) {
	d := m1.Xor(e.p1[s]).Or(m0.Xor(e.p0[s]))
	if d.IsZero() {
		return
	}
	e.p1[s], e.p0[s] = m1, m0
	e.chg[s] = e.chg[s].Or(d)
}

// SetSignal assigns signal s without touching the activity mask (bulk
// state loads that are followed by explicit seeding).
func (e *Engine[V]) SetSignal(s netlist.SigID, m1, m0 V) { e.p1[s], e.p0[s] = m1, m0 }

// LoadState copies a full state vector into the engine.
func (e *Engine[V]) LoadState(p1, p0 []V) {
	copy(e.p1, p1)
	copy(e.p0, p0)
}

// CopyState snapshots the engine's state into the destination slices.
func (e *Engine[V]) CopyState(d1, d0 []V) {
	copy(d1, e.p1)
	copy(d0, e.p0)
}

// enqueue admits gate gi if the mask allows it and it is not queued.
func (ev *eventState) enqueue(gi int) {
	if ev.gateMask[gi>>6]>>uint(gi&63)&1 == 0 || ev.inQ[gi] {
		return
	}
	ev.inQ[gi] = true
	lv := ev.topo.Level[gi]
	ev.buckets[lv] = append(ev.buckets[lv], gi)
	if lv < ev.cursor {
		ev.cursor = lv
	}
}

// EnqueueGate seeds one gate into the event queue.
func (e *Engine[V]) EnqueueGate(gi int) { e.ev.enqueue(gi) }

// EnqueueMaskGates seeds every gate the mask admits — used when no
// cheaper seed set is known (reset, or a fresh fault's whole cone).
func (e *Engine[V]) EnqueueMaskGates() {
	for gi := 0; gi < e.c.NumGates(); gi++ {
		e.ev.enqueue(gi)
	}
}

// SeedFromActivity enqueues the readers of every signal whose activity
// mask is non-zero.  Called before RunRaise (seeding phase A with the
// externally-changed signals) and again before RunLower (phase B must
// re-evaluate everything whose inputs changed during the whole settle,
// because its assignment semantics can lower what A's OR raised).
func (e *Engine[V]) SeedFromActivity() {
	for s := range e.chg {
		if e.chg[s].IsZero() {
			continue
		}
		for _, ri := range e.ev.topo.Readers[s] {
			e.ev.enqueue(ri)
		}
	}
}

// SeedFromActivityOn is SeedFromActivity restricted to the signals in
// mask, under the same containment condition as ClearActivityOn (no
// activity bit may live outside mask).  The full scan costs O(signals)
// per phase per cycle; the masked scan costs O(|mask|).
func (e *Engine[V]) SeedFromActivityOn(mask []uint64) {
	netlist.EachSet(mask, nil, nil, func(s netlist.SigID) {
		if e.chg[s].IsZero() {
			return
		}
		for _, ri := range e.ev.topo.Readers[s] {
			e.ev.enqueue(ri)
		}
	})
}

// RunRaise drains the queue with phase-A (information-raising, OR)
// semantics; RunLower with phase-B (lowering, assignment) semantics.
// Both leave the final fixpoint the matching Jacobi sweep would leave.
func (e *Engine[V]) RunRaise() { e.runEvents(true) }

// RunLower is phase B; see RunRaise.
func (e *Engine[V]) RunLower() { e.runEvents(false) }

func (e *Engine[V]) runEvents(raise bool) {
	e.ev.cursor = 0
	switch e := any(e).(type) {
	case *Engine[V1]:
		runEvents64(e, raise)
	case *Engine[V4]:
		runEvents256(e, raise)
	}
}
