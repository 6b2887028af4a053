// Code generated by sweepgen.go (go generate); DO NOT EDIT.
//
// One kernel per lane width, all rendered from the sweepTemplate in
// sweepgen.go — edit the template, run `go generate ./internal/lanevec`,
// and TestGeneratedSweepInSync will hold you to it.

package lanevec

import "repro/internal/netlist"

// evalGate64 computes the possibility vectors of gate gi's function
// across all 64 lanes — the pure path for gates with no override
// (settle64 routes overridden gates to evalGateOv64), kept free
// of any override bookkeeping so the fault-free bulk of every sweep
// pays nothing for fault injection.
func evalGate64(e *Engine[V1], gi int, p1, p0 []V1) (can1, can0 V1) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	n := g.NLocal()
	cube := func(m uint16) V1 {
		w := e.all
		for j := 0; j < n; j++ {
			if w[0] == 0 {
				break
			}
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			if m>>uint(j)&1 == 1 {
				w[0] &= p1[sig][0]
			} else {
				w[0] &= p0[sig][0]
			}
		}
		return w
	}
	for _, m := range g.OnSet {
		cw := cube(m)
		can1[0] |= cw[0]
		if can1[0] == e.all[0] {
			break
		}
	}
	for _, m := range g.OffSet {
		cw := cube(m)
		can0[0] |= cw[0]
		if can0[0] == e.all[0] {
			break
		}
	}
	return can1, can0
}

// evalGateOv64 is evalGate64 for gates carrying pin, output or
// directional overrides: each pin's possibility word is patched by the
// override masks before it joins the cube, the output stuck-at masks
// are applied to the result, and the directional (transition-fault)
// masks last — those read the gate's own previous output from p1/p0,
// like the C-gate self input, so a slow-to-rise output can keep only
// the 1-possibility it already had (and may always fall), and dually
// for slow-to-fall.  Each lane carries at most one fault, so the
// override kinds apply to disjoint lanes and their order is free.
func evalGateOv64(e *Engine[V1], gi int, p1, p0 []V1) (can1, can0 V1) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	ov := e.inOv[gi]
	n := g.NLocal()
	cube := func(m uint16) V1 {
		w := e.all
		for j := 0; j < n; j++ {
			if w[0] == 0 {
				break
			}
			bitOne := m>>uint(j)&1 == 1
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			var poss V1
			if bitOne {
				poss = p1[sig]
			} else {
				poss = p0[sig]
			}
			for _, o := range ov {
				if o.Pin == j {
					if o.One == bitOne {
						poss[0] |= o.Mask[0]
					} else {
						poss[0] &^= o.Mask[0]
					}
				}
			}
			w[0] &= poss[0]
		}
		return w
	}
	for _, m := range g.OnSet {
		cw := cube(m)
		can1[0] |= cw[0]
		if can1[0] == e.all[0] {
			break
		}
	}
	for _, m := range g.OffSet {
		cw := cube(m)
		can0[0] |= cw[0]
		if can0[0] == e.all[0] {
			break
		}
	}
	oo := &e.outOv[gi]
	can1[0] = can1[0]&^oo.m0[0] | oo.m1[0]
	can0[0] = can0[0]&^oo.m1[0] | oo.m0[0]
	do := &e.dirOv[gi]
	o1, o0 := p1[g.Out], p0[g.Out]
	can1[0] = can1[0]&^(do.fall[0]&^o1[0]) | do.rise[0]&o1[0]
	can0[0] = can0[0]&^(do.rise[0]&^o0[0]) | do.fall[0]&o0[0]
	return can1, can0
}

// settle64 runs parallel algorithm A (information-raising) then
// parallel algorithm B (lowering), Jacobi sweeps, all 64 lanes at
// once.  Each sweep walks the clean partition with the pure kernel and
// the overridden partition with the override kernel — no per-gate
// dispatch test; the sweeps are Jacobi (gates read p, write t), so the
// partition order cannot change the settled state.
func settle64(e *Engine[V1]) {
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
			e1, e0 := evalGate64(e, gi, e.p1, e.p0)
			n1 := V1{e.p1[out][0] | e1[0]}
			n0 := V1{e.p0[out][0] | e0[0]}
			if n1[0] != e.t1[out][0] || n0[0] != e.t0[out][0] {
				e.t1[out], e.t0[out] = n1, n0
				changed = true
			}
		}
		for _, gi := range e.dirty {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGateOv64(e, gi, e.p1, e.p0)
			n1 := V1{e.p1[out][0] | e1[0]}
			n0 := V1{e.p0[out][0] | e0[0]}
			if n1[0] != e.t1[out][0] || n0[0] != e.t0[out][0] {
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
			e1, e0 := evalGate64(e, gi, e.p1, e.p0)
			if e1[0] != e.t1[out][0] || e0[0] != e.t0[out][0] {
				e.t1[out], e.t0[out] = e1, e0
				changed = true
			}
		}
		for _, gi := range e.dirty {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGateOv64(e, gi, e.p1, e.p0)
			if e1[0] != e.t1[out][0] || e0[0] != e.t0[out][0] {
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

// runEvents64 drains the levelized event queue: pop the lowest
// pending level, evaluate the gate (override partition dispatch), and
// on any lane change write the output, accumulate the per-lane
// activity mask and enqueue the admitted readers — feedback drops the
// cursor back.  raise selects phase-A (OR into the output) semantics;
// otherwise phase-B (assignment).  Both phases are chaotic iterations
// of a monotone operator, so the drained fixpoint is bit-identical to
// the corresponding Jacobi sweep (see events.go).
func runEvents64(e *Engine[V1], raise bool) {
	ev := e.ev
	gm := ev.gateMask // multi-word gate admission bitset, hoisted
	guard := ev.guard
	for ev.cursor < len(ev.buckets) {
		b := ev.buckets[ev.cursor]
		n := len(b)
		if n == 0 {
			ev.cursor++
			continue
		}
		gi := b[n-1]
		ev.buckets[ev.cursor] = b[:n-1]
		ev.inQ[gi] = false
		var e1, e0 V1
		if e.hasOv[gi] {
			e1, e0 = evalGateOv64(e, gi, e.p1, e.p0)
		} else {
			e1, e0 = evalGate64(e, gi, e.p1, e.p0)
		}
		e.evals++
		if guard--; guard < 0 {
			panic("lanevec: event settling did not converge")
		}
		out := e.c.Gates[gi].Out
		o1, o0 := e.p1[out], e.p0[out]
		if raise {
			e1[0] |= o1[0]
			e0[0] |= o0[0]
		}
		d := V1{(e1[0] ^ o1[0]) | (e0[0] ^ o0[0])}
		if d[0] == 0 {
			continue
		}
		e.p1[out], e.p0[out] = e1, e0
		e.chg[out][0] |= d[0]
		for _, ri := range ev.topo.Readers[out] {
			if gm[ri>>6]>>uint(ri&63)&1 == 0 || ev.inQ[ri] {
				continue
			}
			ev.inQ[ri] = true
			lv := ev.topo.Level[ri]
			ev.buckets[lv] = append(ev.buckets[lv], ri)
			if lv < ev.cursor {
				ev.cursor = lv
			}
		}
	}
}

// evalGate256 computes the possibility vectors of gate gi's function
// across all 256 lanes — the pure path for gates with no override
// (settle256 routes overridden gates to evalGateOv256), kept free
// of any override bookkeeping so the fault-free bulk of every sweep
// pays nothing for fault injection.
func evalGate256(e *Engine[V4], gi int, p1, p0 []V4) (can1, can0 V4) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	n := g.NLocal()
	cube := func(m uint16) V4 {
		w := e.all
		for j := 0; j < n; j++ {
			if w[0]|w[1]|w[2]|w[3] == 0 {
				break
			}
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			if m>>uint(j)&1 == 1 {
				w[0] &= p1[sig][0]
				w[1] &= p1[sig][1]
				w[2] &= p1[sig][2]
				w[3] &= p1[sig][3]
			} else {
				w[0] &= p0[sig][0]
				w[1] &= p0[sig][1]
				w[2] &= p0[sig][2]
				w[3] &= p0[sig][3]
			}
		}
		return w
	}
	for _, m := range g.OnSet {
		cw := cube(m)
		can1[0] |= cw[0]
		can1[1] |= cw[1]
		can1[2] |= cw[2]
		can1[3] |= cw[3]
		if can1[0] == e.all[0] && can1[1] == e.all[1] && can1[2] == e.all[2] && can1[3] == e.all[3] {
			break
		}
	}
	for _, m := range g.OffSet {
		cw := cube(m)
		can0[0] |= cw[0]
		can0[1] |= cw[1]
		can0[2] |= cw[2]
		can0[3] |= cw[3]
		if can0[0] == e.all[0] && can0[1] == e.all[1] && can0[2] == e.all[2] && can0[3] == e.all[3] {
			break
		}
	}
	return can1, can0
}

// evalGateOv256 is evalGate256 for gates carrying pin, output or
// directional overrides: each pin's possibility word is patched by the
// override masks before it joins the cube, the output stuck-at masks
// are applied to the result, and the directional (transition-fault)
// masks last — those read the gate's own previous output from p1/p0,
// like the C-gate self input, so a slow-to-rise output can keep only
// the 1-possibility it already had (and may always fall), and dually
// for slow-to-fall.  Each lane carries at most one fault, so the
// override kinds apply to disjoint lanes and their order is free.
func evalGateOv256(e *Engine[V4], gi int, p1, p0 []V4) (can1, can0 V4) {
	g := &e.c.Gates[gi]
	nf := len(g.Fanin)
	ov := e.inOv[gi]
	n := g.NLocal()
	cube := func(m uint16) V4 {
		w := e.all
		for j := 0; j < n; j++ {
			if w[0]|w[1]|w[2]|w[3] == 0 {
				break
			}
			bitOne := m>>uint(j)&1 == 1
			var sig netlist.SigID
			if j < nf {
				sig = g.Fanin[j]
			} else {
				sig = g.Out // self input of C gates
			}
			var poss V4
			if bitOne {
				poss = p1[sig]
			} else {
				poss = p0[sig]
			}
			for _, o := range ov {
				if o.Pin == j {
					if o.One == bitOne {
						poss[0] |= o.Mask[0]
						poss[1] |= o.Mask[1]
						poss[2] |= o.Mask[2]
						poss[3] |= o.Mask[3]
					} else {
						poss[0] &^= o.Mask[0]
						poss[1] &^= o.Mask[1]
						poss[2] &^= o.Mask[2]
						poss[3] &^= o.Mask[3]
					}
				}
			}
			w[0] &= poss[0]
			w[1] &= poss[1]
			w[2] &= poss[2]
			w[3] &= poss[3]
		}
		return w
	}
	for _, m := range g.OnSet {
		cw := cube(m)
		can1[0] |= cw[0]
		can1[1] |= cw[1]
		can1[2] |= cw[2]
		can1[3] |= cw[3]
		if can1[0] == e.all[0] && can1[1] == e.all[1] && can1[2] == e.all[2] && can1[3] == e.all[3] {
			break
		}
	}
	for _, m := range g.OffSet {
		cw := cube(m)
		can0[0] |= cw[0]
		can0[1] |= cw[1]
		can0[2] |= cw[2]
		can0[3] |= cw[3]
		if can0[0] == e.all[0] && can0[1] == e.all[1] && can0[2] == e.all[2] && can0[3] == e.all[3] {
			break
		}
	}
	oo := &e.outOv[gi]
	can1[0] = can1[0]&^oo.m0[0] | oo.m1[0]
	can1[1] = can1[1]&^oo.m0[1] | oo.m1[1]
	can1[2] = can1[2]&^oo.m0[2] | oo.m1[2]
	can1[3] = can1[3]&^oo.m0[3] | oo.m1[3]
	can0[0] = can0[0]&^oo.m1[0] | oo.m0[0]
	can0[1] = can0[1]&^oo.m1[1] | oo.m0[1]
	can0[2] = can0[2]&^oo.m1[2] | oo.m0[2]
	can0[3] = can0[3]&^oo.m1[3] | oo.m0[3]
	do := &e.dirOv[gi]
	o1, o0 := p1[g.Out], p0[g.Out]
	can1[0] = can1[0]&^(do.fall[0]&^o1[0]) | do.rise[0]&o1[0]
	can1[1] = can1[1]&^(do.fall[1]&^o1[1]) | do.rise[1]&o1[1]
	can1[2] = can1[2]&^(do.fall[2]&^o1[2]) | do.rise[2]&o1[2]
	can1[3] = can1[3]&^(do.fall[3]&^o1[3]) | do.rise[3]&o1[3]
	can0[0] = can0[0]&^(do.rise[0]&^o0[0]) | do.fall[0]&o0[0]
	can0[1] = can0[1]&^(do.rise[1]&^o0[1]) | do.fall[1]&o0[1]
	can0[2] = can0[2]&^(do.rise[2]&^o0[2]) | do.fall[2]&o0[2]
	can0[3] = can0[3]&^(do.rise[3]&^o0[3]) | do.fall[3]&o0[3]
	return can1, can0
}

// settle256 runs parallel algorithm A (information-raising) then
// parallel algorithm B (lowering), Jacobi sweeps, all 256 lanes at
// once.  Each sweep walks the clean partition with the pure kernel and
// the overridden partition with the override kernel — no per-gate
// dispatch test; the sweeps are Jacobi (gates read p, write t), so the
// partition order cannot change the settled state.
func settle256(e *Engine[V4]) {
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
			e1, e0 := evalGate256(e, gi, e.p1, e.p0)
			n1 := V4{e.p1[out][0] | e1[0], e.p1[out][1] | e1[1], e.p1[out][2] | e1[2], e.p1[out][3] | e1[3]}
			n0 := V4{e.p0[out][0] | e0[0], e.p0[out][1] | e0[1], e.p0[out][2] | e0[2], e.p0[out][3] | e0[3]}
			if n1[0] != e.t1[out][0] || n1[1] != e.t1[out][1] || n1[2] != e.t1[out][2] || n1[3] != e.t1[out][3] || n0[0] != e.t0[out][0] || n0[1] != e.t0[out][1] || n0[2] != e.t0[out][2] || n0[3] != e.t0[out][3] {
				e.t1[out], e.t0[out] = n1, n0
				changed = true
			}
		}
		for _, gi := range e.dirty {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGateOv256(e, gi, e.p1, e.p0)
			n1 := V4{e.p1[out][0] | e1[0], e.p1[out][1] | e1[1], e.p1[out][2] | e1[2], e.p1[out][3] | e1[3]}
			n0 := V4{e.p0[out][0] | e0[0], e.p0[out][1] | e0[1], e.p0[out][2] | e0[2], e.p0[out][3] | e0[3]}
			if n1[0] != e.t1[out][0] || n1[1] != e.t1[out][1] || n1[2] != e.t1[out][2] || n1[3] != e.t1[out][3] || n0[0] != e.t0[out][0] || n0[1] != e.t0[out][1] || n0[2] != e.t0[out][2] || n0[3] != e.t0[out][3] {
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
			e1, e0 := evalGate256(e, gi, e.p1, e.p0)
			if e1[0] != e.t1[out][0] || e1[1] != e.t1[out][1] || e1[2] != e.t1[out][2] || e1[3] != e.t1[out][3] || e0[0] != e.t0[out][0] || e0[1] != e.t0[out][1] || e0[2] != e.t0[out][2] || e0[3] != e.t0[out][3] {
				e.t1[out], e.t0[out] = e1, e0
				changed = true
			}
		}
		for _, gi := range e.dirty {
			out := e.c.Gates[gi].Out
			e1, e0 := evalGateOv256(e, gi, e.p1, e.p0)
			if e1[0] != e.t1[out][0] || e1[1] != e.t1[out][1] || e1[2] != e.t1[out][2] || e1[3] != e.t1[out][3] || e0[0] != e.t0[out][0] || e0[1] != e.t0[out][1] || e0[2] != e.t0[out][2] || e0[3] != e.t0[out][3] {
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

// runEvents256 drains the levelized event queue: pop the lowest
// pending level, evaluate the gate (override partition dispatch), and
// on any lane change write the output, accumulate the per-lane
// activity mask and enqueue the admitted readers — feedback drops the
// cursor back.  raise selects phase-A (OR into the output) semantics;
// otherwise phase-B (assignment).  Both phases are chaotic iterations
// of a monotone operator, so the drained fixpoint is bit-identical to
// the corresponding Jacobi sweep (see events.go).
func runEvents256(e *Engine[V4], raise bool) {
	ev := e.ev
	gm := ev.gateMask // multi-word gate admission bitset, hoisted
	guard := ev.guard
	for ev.cursor < len(ev.buckets) {
		b := ev.buckets[ev.cursor]
		n := len(b)
		if n == 0 {
			ev.cursor++
			continue
		}
		gi := b[n-1]
		ev.buckets[ev.cursor] = b[:n-1]
		ev.inQ[gi] = false
		var e1, e0 V4
		if e.hasOv[gi] {
			e1, e0 = evalGateOv256(e, gi, e.p1, e.p0)
		} else {
			e1, e0 = evalGate256(e, gi, e.p1, e.p0)
		}
		e.evals++
		if guard--; guard < 0 {
			panic("lanevec: event settling did not converge")
		}
		out := e.c.Gates[gi].Out
		o1, o0 := e.p1[out], e.p0[out]
		if raise {
			e1[0] |= o1[0]
			e1[1] |= o1[1]
			e1[2] |= o1[2]
			e1[3] |= o1[3]
			e0[0] |= o0[0]
			e0[1] |= o0[1]
			e0[2] |= o0[2]
			e0[3] |= o0[3]
		}
		d := V4{(e1[0] ^ o1[0]) | (e0[0] ^ o0[0]), (e1[1] ^ o1[1]) | (e0[1] ^ o0[1]), (e1[2] ^ o1[2]) | (e0[2] ^ o0[2]), (e1[3] ^ o1[3]) | (e0[3] ^ o0[3])}
		if d[0]|d[1]|d[2]|d[3] == 0 {
			continue
		}
		e.p1[out], e.p0[out] = e1, e0
		e.chg[out][0] |= d[0]
		e.chg[out][1] |= d[1]
		e.chg[out][2] |= d[2]
		e.chg[out][3] |= d[3]
		for _, ri := range ev.topo.Readers[out] {
			if gm[ri>>6]>>uint(ri&63)&1 == 0 || ev.inQ[ri] {
				continue
			}
			ev.inQ[ri] = true
			lv := ev.topo.Level[ri]
			ev.buckets[lv] = append(ev.buckets[lv], ri)
			if lv < ev.cursor {
				ev.cursor = lv
			}
		}
	}
}
