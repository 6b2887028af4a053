package fsim

import (
	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// machine is the pattern-parallel instantiation of the shared
// lanevec.Engine sweep core: one (possibly faulty) circuit simulated
// across the lanes of V, where each lane carries an independent test
// sequence and the single fault is injected into every lane by
// Engine.Inject (the PPSFP orientation).
type machine[V lanevec.Vec[V]] struct {
	eng *lanevec.Engine[V]

	gm      []uint64 // scratch gate-mask buffer for cone-limited runs
	initW   []uint64 // cached multi-word initial state
	support []uint64 // cone ∪ fanins of cone gates: the maintained signal set
	swap    []uint64 // swap mask: which out-of-cone diff signals get trace values
	chgSpan []uint64 // mask covering every possible activity bit (nil: all signals)
	detOuts []int    // output indices detection may consult (nil: all outputs)
	outBuf  []int    // backing storage for detOuts

	allocs int64 // backing-array allocations this machine performed
}

func newMachine[V lanevec.Vec[V]](c *netlist.Circuit) *machine[V] {
	return &machine[V]{eng: lanevec.NewEngine[V](c)}
}

// setAll selects the active lanes; safe to change between batches on a
// reused machine.
func (m *machine[V]) setAll(all V) { m.eng.SetAll(all) }

// reset loads the circuit's declared initial state into every lane and
// settles (a fault can destabilise the reset state).
func (m *machine[V]) reset() { m.eng.Reset() }

// apply drives the primary-input rails with per-lane values and
// settles: rails[i] holds the lane vector of input i.  One synchronous
// test cycle for all lanes at once.
func (m *machine[V]) apply(rails []V) { m.eng.ApplyRails(rails) }

// detectVs returns the lanes whose primary outputs are definitely
// different from the good response encoded as per-output definite
// vectors — detection guaranteed under every delay assignment.  After
// a lazily-seeded event reset only the cone's outputs are consulted
// (detOuts): the out-of-cone outputs are not maintained, and by the
// cone theorem they equal the good response anyway.
func (m *machine[V]) detectVs(good1, good0 []V) V {
	if m.detOuts != nil {
		return m.eng.DetectVsOn(m.detOuts, good1, good0)
	}
	return m.eng.DetectVs(good1, good0)
}

// laneState extracts the ternary state of one lane (tests/debugging).
func (m *machine[V]) laneState(lane int) logic.Vec { return m.eng.LaneState(lane) }

// clearActivity zeroes the activity accumulated since the last clear,
// scanning only the span that could hold it.
func (m *machine[V]) clearActivity() {
	if m.chgSpan == nil {
		m.eng.ClearActivity()
	} else {
		m.eng.ClearActivityOn(m.chgSpan)
	}
}

// seedActivity enqueues the readers of every changed signal, scanning
// only the span that could hold activity.
func (m *machine[V]) seedActivity() {
	if m.chgSpan == nil {
		m.eng.SeedFromActivity()
	} else {
		m.eng.SeedFromActivityOn(m.chgSpan)
	}
}

// growMask returns dst resized to n words, counting reallocations.
func (m *machine[V]) growMask(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		m.allocs++
		return make([]uint64, n)
	}
	return dst[:n]
}

// eventReset prepares the machine for a cone-limited event-driven run
// of fault f, whose faulty gate's output cone is `cone` (a signal
// bitset from the circuit topology).
//
// Correctness rests on the cone theorem (see the engine in fsim.go):
// signals outside the cone are bit-identical to the good machine at
// every phase fixpoint, so loading them from the cached trace and
// evaluating only cone gates reproduces the full simulation exactly.
//
// The default path seeds lazily: only the fault's support — the cone
// plus the fanins its gates read — is loaded from the trace, and the
// phase queues are seeded with just the fault gate, the drivers of the
// cone signals the good machine itself moved during reset (df.ra for
// the raise, df.rb for the lower) and whatever the swapped-in signal
// changes excite.  Everything else provably already satisfies its
// phase's fixpoint equation:
//
//   - a cone gate with no seeded input whose output was not rewound
//     reads exactly the good machine's A-fixpoint values, and the good
//     machine's fixpoint p ⊇ eval transfers verbatim;
//   - a cone signal the good machine moved during reset raising
//     (cone ∩ ra) is rewound to the declared init value as *marked*
//     activity, so its readers re-evaluate, and its driver is seeded
//     explicitly because its own output assignment changed;
//   - phase B re-seeds the same explicit sets (a gate seeded without
//     an input change can end phase A with p ⊋ eval and no recorded
//     activity) plus the drivers of cone ∩ rb, the gates the good
//     machine itself lowers between the reset fixpoints; every other
//     gate either saw marked input activity (the accumulated masks
//     survive both phases) or sits at a good B fixpoint already.
//
// Because only support signals are maintained, detection afterwards
// must consult only the cone's outputs; eventReset records that view
// in detOuts and detectVs applies it.
//
// The eager flag restores the pre-overhaul behavior — full state load,
// every cone gate enqueued per phase, every out-of-cone diff swapped,
// all outputs compared — which the lazy/eager differential suite runs
// both ways, and which remains the sound fallback when a batch's
// declared Expected responses deviate from the good machine (then an
// out-of-cone output can detect, so all outputs must stay fresh).
func (m *machine[V]) eventReset(f *faults.Fault, cone []uint64, topo *netlist.Topology, tr *goodTrace[V], df *traceDiffs, eager bool) {
	e := m.eng
	c := e.Circuit()
	e.InitEvents(topo)

	// Clear the previous fault's activity before chgSpan moves to this
	// fault's support (stale bits outside the new span would otherwise
	// leak into seeding).
	m.clearActivity()

	e.Inject(f)
	m.gm = topo.GateMaskW(cone, m.gm)
	e.SetGateMask(m.gm)
	if m.initW == nil {
		m.initW = c.InitWords()
	}
	all := e.All()
	var zero V

	if eager {
		m.chgSpan = nil
		m.detOuts = nil
		// swap = every signal outside the cone (phantom high bits are
		// harmless: the swap mask is only ever intersected with diffs).
		m.swap = m.growMask(m.swap, df.w)
		for w := range m.swap {
			var cw uint64
			if w < len(cone) {
				cw = cone[w]
			}
			m.swap[w] = ^cw
		}

		// Phase A: out-of-cone signals at the good A fixpoint, cone
		// signals back at the declared reset values, every cone gate
		// seeded.
		e.LoadState(tr.resetA1, tr.resetA0)
		netlist.EachSet(cone, nil, nil, func(s netlist.SigID) {
			if m.initW[int(s)>>6]>>uint(int(s)&63)&1 == 1 {
				e.SetSignal(s, all, zero)
			} else {
				e.SetSignal(s, zero, all)
			}
		})
		e.EnqueueMaskGates()
		e.RunRaise()

		// Phase B: out-of-cone signals drop to the good B fixpoint.
		netlist.EachSet(df.rb, m.swap, nil, func(s netlist.SigID) {
			e.SetSignal(s, tr.resetB1[s], tr.resetB0[s])
		})
		e.EnqueueMaskGates()
		e.RunLower()
		return
	}

	supCap := cap(m.support)
	m.support = topo.SupportOf(c, cone, m.support)
	if cap(m.support) != supCap {
		m.allocs++
	}
	m.chgSpan = m.support
	m.swap = m.growMask(m.swap, len(m.support))
	for w := range m.swap {
		var cw uint64
		if w < len(cone) {
			cw = cone[w]
		}
		m.swap[w] = m.support[w] &^ cw
	}
	if m.outBuf == nil {
		// Never nil: an empty detOuts means "no output can detect"
		// (a cone reaching no primary output), while nil means "all".
		m.outBuf = make([]int, 0, len(c.Outputs))
		m.allocs++
	}
	m.outBuf = m.outBuf[:0]
	for j, sig := range c.Outputs {
		if int(sig)>>6 < len(cone) && cone[int(sig)>>6]>>uint(int(sig)&63)&1 == 1 {
			m.outBuf = append(m.outBuf, j)
		}
	}
	m.detOuts = m.outBuf

	// Phase A: load only the support slice of the good A fixpoint (the
	// rest of the state is stale and provably never read), rewind the
	// cone signals the good machine moved during reset raising back to
	// the declared init values as marked activity, and seed the queue
	// with the fault gate plus the rewound signals' drivers.
	netlist.EachSet(m.support, nil, nil, func(s netlist.SigID) {
		e.SetSignal(s, tr.resetA1[s], tr.resetA0[s])
	})
	netlist.EachSet(df.ra, cone, nil, func(s netlist.SigID) {
		if m.initW[int(s)>>6]>>uint(int(s)&63)&1 == 1 {
			e.MarkSignal(s, all, zero)
		} else {
			e.MarkSignal(s, zero, all)
		}
		e.EnqueueGate(int(s) - topo.NumInputs)
	})
	e.EnqueueGate(f.Gate)
	m.seedActivity()
	e.RunRaise()

	// Phase B: swap the out-of-cone support signals the good machine
	// lowers between the reset fixpoints, then re-seed the explicit
	// sets (plus the drivers of cone ∩ rb) and whatever activity the
	// whole settle accumulated.
	netlist.EachSet(df.rb, m.swap, nil, func(s netlist.SigID) {
		e.MarkSignal(s, tr.resetB1[s], tr.resetB0[s])
	})
	netlist.EachSet(df.ra, cone, nil, func(s netlist.SigID) {
		e.EnqueueGate(int(s) - topo.NumInputs)
	})
	netlist.EachSet(df.rb, cone, nil, func(s netlist.SigID) {
		e.EnqueueGate(int(s) - topo.NumInputs)
	})
	e.EnqueueGate(f.Gate)
	m.seedActivity()
	e.RunLower()
}

// eventApply advances one test cycle on a cone-limited machine: swap
// the swap-mask signals (rails included) to the good trace's A
// fixpoint, raise the cone, swap to the B fixpoint, lower the cone.
// Only gates whose inputs actually changed — tracked lanewise by the
// activity masks — are evaluated, and every set operation (clear,
// swap selection, seed scan) runs over word-level intersections of
// the precomputed diff bitsets with the fault's support instead of
// per-signal cone-membership tests.
func (m *machine[V]) eventApply(t int, tr *goodTrace[V], df *traceDiffs) {
	e := m.eng
	m.clearActivity()
	netlist.EachSet(df.a[t], m.swap, nil, func(s netlist.SigID) {
		e.MarkSignal(s, tr.stateA1[t][s], tr.stateA0[t][s])
	})
	m.seedActivity()
	e.RunRaise()
	netlist.EachSet(df.b[t], m.swap, nil, func(s netlist.SigID) {
		e.MarkSignal(s, tr.stateB1[t][s], tr.stateB0[t][s])
	})
	m.seedActivity()
	e.RunLower()
}
