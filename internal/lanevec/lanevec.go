// Package lanevec is the single bit-parallel ternary sweep core behind
// every fault-simulation engine in the repository.
//
// A lane vector is one machine word: bit l carries lane l, so an
// engine simulates 64 lanes at once.  Each signal of a circuit is
// encoded as two words — the "may be 1" and "may be 0" possibility
// words of the ternary domain (both set encodes Φ) — and the
// Eichelberger A/B Jacobi sweeps operate on whole words, so every gate
// evaluation answers all lanes at once.
//
// The package exposes exactly one settle/evalGate implementation, in
// one orientation: each lane carries a different input sequence
// (fsim's test sequences) and one fault, selected by Engine.Inject, is
// applied to every lane through the override masks.
package lanevec

import "repro/internal/netlist"

// Lanes is the number of lanes an Engine simulates: one bit of a
// uint64 per lane.
const Lanes = 64

// evalGate computes the possibility words of gate gi's function across
// all lanes — the pure path for gates with no override (settle routes
// overridden gates to evalGateOv), kept free of any override
// bookkeeping so the fault-free bulk of every sweep pays nothing for
// fault injection.
func evalGate(e *Engine, gi int, p1, p0 []uint64) (can1, can0 uint64) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	n := g.NLocal()
	cube := func(m uint16) uint64 {
		w := e.all
		for j := 0; j < n; j++ {
			if w == 0 {
				break
			}
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			if m>>uint(j)&1 == 1 {
				w &= p1[sig]
			} else {
				w &= p0[sig]
			}
		}
		return w
	}
	for _, m := range g.OnSet {
		can1 |= cube(m)
		if can1 == e.all {
			break
		}
	}
	for _, m := range g.OffSet {
		can0 |= cube(m)
		if can0 == e.all {
			break
		}
	}
	return can1, can0
}

// evalGateOv is evalGate for gates carrying pin, output or directional
// overrides: each pin's possibility word is patched by the override
// masks before it joins the cube, the output stuck-at masks are
// applied to the result, and the directional (transition-fault) masks
// last — those read the gate's own previous output from p1/p0, like
// the C-gate self input, so a slow-to-rise output can keep only the
// 1-possibility it already had (and may always fall), and dually for
// slow-to-fall.  Each lane carries at most one fault, so the override
// kinds apply to disjoint lanes and their order is free.
func evalGateOv(e *Engine, gi int, p1, p0 []uint64) (can1, can0 uint64) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	ov := e.inOv[gi]
	n := g.NLocal()
	cube := func(m uint16) uint64 {
		w := e.all
		for j := 0; j < n; j++ {
			if w == 0 {
				break
			}
			bitOne := m>>uint(j)&1 == 1
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			var poss uint64
			if bitOne {
				poss = p1[sig]
			} else {
				poss = p0[sig]
			}
			for _, o := range ov {
				if o.Pin == j {
					if o.One == bitOne {
						poss |= o.Mask
					} else {
						poss &^= o.Mask
					}
				}
			}
			w &= poss
		}
		return w
	}
	for _, m := range g.OnSet {
		can1 |= cube(m)
		if can1 == e.all {
			break
		}
	}
	for _, m := range g.OffSet {
		can0 |= cube(m)
		if can0 == e.all {
			break
		}
	}
	oo := &e.outOv[gi]
	can1 = can1&^oo.m0 | oo.m1
	can0 = can0&^oo.m1 | oo.m0
	do := &e.dirOv[gi]
	o1, o0 := p1[g.Out], p0[g.Out]
	can1 = can1&^(do.fall&^o1) | do.rise&o1
	can0 = can0&^(do.rise&^o0) | do.fall&o0
	return can1, can0
}

// settle runs parallel algorithm A (information-raising) then parallel
// algorithm B (lowering), Jacobi sweeps, all lanes at once.  Each sweep
// walks the clean partition with the pure kernel and the overridden
// partition with the override kernel — no per-gate dispatch test; the
// sweeps are Jacobi (gates read p, write t), so the partition order
// cannot change the settled state.
func settle(e *Engine) {
	maxSweeps := 2*e.c.NumSignals() + 4
	// Algorithm A.
	for sweep := 0; ; sweep++ {
		if sweep > maxSweeps {
			panic("lanevec: parallel algorithm A did not converge")
		}
		copy(e.t1, e.p1)
		copy(e.t0, e.p0)
		changed := false
		for _, gi := range e.clean {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGate(e, gi, e.p1, e.p0)
			n1 := e.p1[out] | e1
			n0 := e.p0[out] | e0
			if n1 != e.t1[out] || n0 != e.t0[out] {
				e.t1[out], e.t0[out] = n1, n0
				changed = true
			}
		}
		for _, gi := range e.dirty {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGateOv(e, gi, e.p1, e.p0)
			n1 := e.p1[out] | e1
			n0 := e.p0[out] | e0
			if n1 != e.t1[out] || n0 != e.t0[out] {
				e.t1[out], e.t0[out] = n1, n0
				changed = true
			}
		}
		e.evals += int64(e.c.NumGates())
		e.p1, e.t1 = e.t1, e.p1
		e.p0, e.t0 = e.t0, e.p0
		if !changed {
			break
		}
	}
	// Algorithm B.
	for sweep := 0; ; sweep++ {
		if sweep > maxSweeps {
			panic("lanevec: parallel algorithm B did not converge")
		}
		copy(e.t1, e.p1)
		copy(e.t0, e.p0)
		changed := false
		for _, gi := range e.clean {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGate(e, gi, e.p1, e.p0)
			if e1 != e.t1[out] || e0 != e.t0[out] {
				e.t1[out], e.t0[out] = e1, e0
				changed = true
			}
		}
		for _, gi := range e.dirty {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGateOv(e, gi, e.p1, e.p0)
			if e1 != e.t1[out] || e0 != e.t0[out] {
				e.t1[out], e.t0[out] = e1, e0
				changed = true
			}
		}
		e.evals += int64(e.c.NumGates())
		e.p1, e.t1 = e.t1, e.p1
		e.p0, e.t0 = e.t0, e.p0
		if !changed {
			break
		}
	}
}
