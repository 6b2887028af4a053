package podem

import (
	"context"
	"math/bits"
	"sort"

	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// maxGroup bounds decision-group width; 256 lanes → 8 PIs per settle.
const maxGroup = 8

// grpRec is one node of the decision stack: a group of primary inputs
// whose 2^npis value combinations were settled lanewise in one pass,
// plus the classification masks read off that settle.  The masks are
// computed in the context of the committed assignment *below* this
// group and stay valid across lane retreats (ternary settling is
// monotone in the assignment, and the context does not change until
// the group is popped).
type grpRec[V lanevec.Vec[V]] struct {
	pis   [maxGroup]int
	npis  int
	lane  int // currently selected lane (value combination)
	pref  int // preferred combination (objective values; tried first)
	tried V   // lanes already explored
	det   V   // lanes with a definite-opposite primary output
	alive V   // lanes where some cone output is not definitely equal
	dnow  V   // lanes with a definite D somewhere in the cone
}

// frameKind classifies the outcome of one synchronous frame's search.
type frameKind int

const (
	frameFail    frameKind = iota // no useful vector found
	frameAdvance                  // vector latches a D into the state
	frameDetect                   // vector observes the fault at an output
)

// gen is the width-instantiated search core.
type gen[V lanevec.Vec[V]] struct {
	c    *netlist.Circuit
	topo *netlist.Topology
	opts Options
	st   Stats

	lanes int
	all   V
	kMax  int // log2(lanes): group width the lane count can enumerate
	gpat  []V // gpat[q] bit l = (l>>q)&1: periodic decision patterns

	good, faulty *lanevec.Engine[V]

	// Frame-start states (the previous frame's settled scalar states,
	// broadcast to every lane).
	gs1, gs0, fs1, fs0 []V

	asg  logic.Vec // committed PI assignment (groups below the stack top)
	easg logic.Vec // effective assignment incl. the top group's lane
	sv   logic.Vec // scratch: good lane values for gate-local evals
	fsv  logic.Vec // scratch: faulty lane values

	stack []grpRec[V]

	// Advance fallback: the best assignment seen that latches a D.
	advAsg logic.Vec
	advOK  bool

	// Controllability guide (score.go).
	cc0, cc1 []int32

	// Per-target structural context.
	cone     []uint64
	coneOuts []int
	supPIs   []int
	smark    []int // per-signal visit stamp (support DFS, backtrace)
	stamp    int
	sstack   []netlist.SigID

	goodM, faultyM sim.Machine
	gbuf, fbuf     sim.SettleBuf
	budget         int
	xbits          []int
}

func newGen[V lanevec.Vec[V]](c *netlist.Circuit, opts Options) *gen[V] {
	topo := c.Topology()
	var zero V
	lanes := zero.Size()
	g := &gen[V]{
		c:     c,
		topo:  topo,
		opts:  opts,
		lanes: lanes,
		all:   zero.FirstN(lanes),
		kMax:  bits.Len(uint(lanes)) - 1,
	}
	if g.kMax > maxGroup {
		g.kMax = maxGroup
	}
	g.gpat = make([]V, g.kMax)
	for q := 0; q < g.kMax; q++ {
		p := zero
		for l := 0; l < lanes; l++ {
			if l>>uint(q)&1 == 1 {
				p = p.WithBit(l)
			}
		}
		g.gpat[q] = p
	}
	g.good = lanevec.NewEngine[V](c)
	g.good.SetAll(g.all)
	g.good.InitEvents(topo)
	g.faulty = lanevec.NewEngine[V](c)
	g.faulty.SetAll(g.all)
	g.faulty.InitEvents(topo)
	n := c.NumSignals()
	g.gs1 = make([]V, n)
	g.gs0 = make([]V, n)
	g.fs1 = make([]V, n)
	g.fs0 = make([]V, n)
	g.asg = make(logic.Vec, c.NumInputs())
	g.easg = make(logic.Vec, c.NumInputs())
	g.advAsg = make(logic.Vec, c.NumInputs())
	g.sv = make(logic.Vec, n)
	g.fsv = make(logic.Vec, n)
	g.smark = make([]int, n)
	g.cc0, g.cc1 = controllability(c)
	g.goodM = sim.Machine{C: c}
	return g
}

func (g *gen[V]) stats() Stats { return g.st }

// bitset reports whether signal s is in the word-level set w.
func bitset(w []uint64, s netlist.SigID) bool {
	return int(s)>>6 < len(w) && w[int(s)>>6]>>(uint(s)&63)&1 == 1
}

// target runs the multi-frame search for one fault.
func (g *gen[V]) target(ctx context.Context, f faults.Fault) (Test, bool) {
	g.st.Targeted++
	site := f.Site(g.c)
	g.cone = g.topo.ConeOf(site)
	g.coneOuts = g.coneOuts[:0]
	for j, s := range g.c.Outputs {
		if bitset(g.cone, s) {
			g.coneOuts = append(g.coneOuts, j)
		}
	}
	if len(g.coneOuts) == 0 {
		return Test{}, false // structurally unobservable: X-path closed
	}
	g.computeSupport()
	g.faulty.Inject(&f)
	fc := f
	g.faultyM = sim.Machine{C: g.c, Fault: &fc}
	goodSt := g.goodM.InitState()
	faultySt := g.faultyM.InitState()
	g.budget = g.opts.DecisionBudget
	var t Test
	for cyc := 0; cyc < g.opts.MaxCycles; cyc++ {
		if ctx.Err() != nil {
			return Test{}, false
		}
		vec, kind := g.searchFrame(ctx, &f, goodSt, faultySt)
		if kind == frameFail {
			return Test{}, false
		}
		goodSt = g.goodM.Step(goodSt, vec)
		faultySt = g.faultyM.Step(faultySt, vec)
		t.Patterns = append(t.Patterns, vec)
		t.Expected = append(t.Expected, g.goodM.PackOutputs(goodSt))
		if kind == frameDetect {
			g.st.Found++
			return t, true
		}
	}
	return Test{}, false
}

// computeSupport collects the primary inputs in the transitive fanin of
// the fault cone — the pool group-filling draws from.  (Topology's
// SupportOf is one fanin level only; the group needs the closure.)
func (g *gen[V]) computeSupport() {
	g.supPIs = g.supPIs[:0]
	g.stamp++
	g.sstack = g.sstack[:0]
	netlist.EachSet(g.cone, nil, nil, func(s netlist.SigID) {
		g.sstack = append(g.sstack, s)
	})
	m := g.c.NumInputs()
	for len(g.sstack) > 0 {
		s := g.sstack[len(g.sstack)-1]
		g.sstack = g.sstack[:len(g.sstack)-1]
		if g.smark[s] == g.stamp {
			continue
		}
		g.smark[s] = g.stamp
		if int(s) < m {
			g.supPIs = append(g.supPIs, int(s))
			continue
		}
		for _, fin := range g.c.Gates[g.c.GateOf(s)].Fanin {
			if g.smark[fin] != g.stamp {
				g.sstack = append(g.sstack, fin)
			}
		}
	}
	sort.Ints(g.supPIs)
}

// loadStarts broadcasts the frame-start scalar states to every lane.
func (g *gen[V]) loadStarts(goodSt, faultySt logic.Vec) {
	var zero V
	for s := 0; s < g.c.NumSignals(); s++ {
		switch goodSt[s] {
		case logic.One:
			g.gs1[s], g.gs0[s] = g.all, zero
		case logic.Zero:
			g.gs1[s], g.gs0[s] = zero, g.all
		default:
			g.gs1[s], g.gs0[s] = g.all, g.all
		}
		switch faultySt[s] {
		case logic.One:
			g.fs1[s], g.fs0[s] = g.all, zero
		case logic.Zero:
			g.fs1[s], g.fs0[s] = zero, g.all
		default:
			g.fs1[s], g.fs0[s] = g.all, g.all
		}
	}
}

// settleGroup settles both engines with the committed assignment on
// all non-group inputs and the periodic decision patterns on the
// group: lane l applies combination l mod 2^len(pis).
func (g *gen[V]) settleGroup(pis []int) {
	g.st.Settles++
	var zero V
	settleOne := func(e *lanevec.Engine[V], s1, s0 []V) {
		e.ClearActivity()
		e.LoadState(s1, s0)
		for i := 0; i < g.c.NumInputs(); i++ {
			if groupPos(pis, i) >= 0 {
				continue
			}
			var m1, m0 V
			switch g.asg[i] {
			case logic.One:
				m1, m0 = g.all, zero
			case logic.Zero:
				m1, m0 = zero, g.all
			default:
				m1, m0 = g.all, g.all
			}
			e.MarkSignal(netlist.SigID(i), m1, m0)
		}
		for q, pi := range pis {
			w := g.gpat[q]
			e.MarkSignal(netlist.SigID(pi), w, g.all.AndNot(w))
		}
		e.SeedFromActivity()
		e.RunRaise()
		e.SeedFromActivity()
		e.RunLower()
	}
	settleOne(g.good, g.gs1, g.gs0)
	settleOne(g.faulty, g.fs1, g.fs0)
}

func groupPos(pis []int, i int) int {
	for q, pi := range pis {
		if pi == i {
			return q
		}
	}
	return -1
}

// laneVal reads the ternary value of signal s in one lane.
func laneVal[V lanevec.Vec[V]](e *lanevec.Engine[V], s netlist.SigID, lane int) logic.V {
	d1, d0 := e.Definite(s)
	if d1.Has(lane) {
		return logic.One
	}
	if d0.Has(lane) {
		return logic.Zero
	}
	return logic.X
}

// evalGroup settles a decision group and classifies its lanes.  The
// returned record has no lane selected yet; viable is false when no
// active lane can still reach an in-frame detection.
func (g *gen[V]) evalGroup(f *faults.Fault, pis []int, pref int) (grpRec[V], bool) {
	g.settleGroup(pis)
	var zero V
	active := zero.FirstN(1 << uint(len(pis)))
	var det, alive, dnow V
	for _, j := range g.coneOuts {
		s := g.c.Outputs[j]
		g1, g0 := g.good.Definite(s)
		f1, f0 := g.faulty.Definite(s)
		det = det.Or(g1.And(f0)).Or(g0.And(f1))
		eq := g1.And(f1).Or(g0.And(f0))
		alive = alive.Or(active.AndNot(eq))
	}
	netlist.EachSet(g.cone, nil, nil, func(s netlist.SigID) {
		g1, g0 := g.good.Definite(s)
		f1, f0 := g.faulty.Definite(s)
		dnow = dnow.Or(g1.And(f0)).Or(g0.And(f1))
	})
	rec := grpRec[V]{npis: len(pis), pref: pref,
		det: det.And(active), alive: alive.And(active), dnow: dnow.And(active)}
	copy(rec.pis[:], pis)
	// Any lane that carries a D but does not yet detect is an advance
	// candidate: its vector latches a definite difference into the
	// feedback state for the next frame.  Remember the deepest one.
	if adv := rec.dnow.AndNot(rec.det); !adv.IsZero() {
		g.saveAdvance(pis, adv.TrailingZeros())
	}
	lane, ok := g.pick(&rec)
	if !ok {
		return rec, false
	}
	rec.lane = lane
	return rec, true
}

// pick selects the most promising untried lane: detecting lanes first,
// then D-carrying live lanes, then merely live lanes; within the best
// class the preferred (objective-valued) combination wins, else the
// lowest lane.
func (g *gen[V]) pick(rec *grpRec[V]) (int, bool) {
	for _, class := range [3]V{rec.det, rec.dnow.And(rec.alive), rec.alive} {
		c := class.AndNot(rec.tried)
		if c.IsZero() {
			continue
		}
		if c.Has(rec.pref) {
			return rec.pref, true
		}
		return c.TrailingZeros(), true
	}
	return 0, false
}

// saveAdvance snapshots the effective assignment of one advance lane.
func (g *gen[V]) saveAdvance(pis []int, lane int) {
	copy(g.advAsg, g.asg)
	for q, pi := range pis {
		g.advAsg[pi] = logic.FromBool(lane>>uint(q)&1 == 1)
	}
	g.advOK = true
}

// commit folds the top group's selected lane into the committed
// assignment (the group stops being the stack top).
func (g *gen[V]) commit(rec *grpRec[V]) {
	for q := 0; q < rec.npis; q++ {
		g.asg[rec.pis[q]] = logic.FromBool(rec.lane>>uint(q)&1 == 1)
	}
}

// uncommit clears a group's PIs back to X.
func (g *gen[V]) uncommit(rec *grpRec[V]) {
	for q := 0; q < rec.npis; q++ {
		g.asg[rec.pis[q]] = logic.X
	}
}

// effAsg materialises the effective assignment at the current node:
// the committed groups plus the top group's selected lane.
func (g *gen[V]) effAsg(rec *grpRec[V]) logic.Vec {
	copy(g.easg, g.asg)
	for q := 0; q < rec.npis; q++ {
		g.easg[rec.pis[q]] = logic.FromBool(rec.lane>>uint(q)&1 == 1)
	}
	return g.easg
}

// searchFrame searches one synchronous frame from the given scalar
// state pair.  Invariant: g.asg holds the committed values of every
// stack group *except* the top; the top group's PIs vary per-lane in
// the engines and its selected lane names the current branch.
func (g *gen[V]) searchFrame(ctx context.Context, f *faults.Fault, goodSt, faultySt logic.Vec) (uint64, frameKind) {
	g.loadStarts(goodSt, faultySt)
	for i := range g.asg {
		g.asg[i] = logic.X
	}
	g.advOK = false
	g.stack = g.stack[:0]

	// Bootstrap: settle the all-X assignment as an empty group.
	rec, viable := g.evalGroup(f, nil, 0)
	if viable {
		g.stack = append(g.stack, rec)
	}

	for len(g.stack) > 0 {
		if g.budget <= 0 || ctx.Err() != nil {
			break
		}
		top := &g.stack[len(g.stack)-1]
		if top.det.Has(top.lane) {
			if vec, kind := g.complete(f, goodSt, faultySt, g.effAsg(top)); kind == frameDetect {
				return vec, frameDetect
			}
			// No valid completion (good machine will not settle
			// definite): treat like a conflict.
			if !g.retreat() {
				break
			}
			continue
		}
		pis, pref, ok := g.deriveGroup(f, top)
		if !ok {
			if !g.retreat() {
				break
			}
			continue
		}
		g.budget -= len(pis)
		g.st.Decisions += int64(len(pis))
		// The top becomes interior: commit its lane, then settle the
		// new group in that context.
		g.commit(top)
		rec, viable := g.evalGroup(f, pis, pref)
		if !viable {
			g.uncommit(top)
			if !g.retreat() {
				break
			}
			continue
		}
		g.stack = append(g.stack, rec)
	}

	if g.advOK {
		if vec, kind := g.complete(f, goodSt, faultySt, g.advAsg); kind != frameFail {
			return vec, kind
		}
	}
	return 0, frameFail
}

// retreat moves to the next untried lane of the stack top, or pops
// exhausted groups.  After a pop the engines hold a deeper settle, so
// the new top is re-settled in its (unchanged) context; its
// classification masks remain valid.
func (g *gen[V]) retreat() bool {
	for len(g.stack) > 0 {
		top := &g.stack[len(g.stack)-1]
		top.tried = top.tried.WithBit(top.lane)
		g.st.Backtracks++
		if lane, ok := g.pick(top); ok {
			top.lane = lane
			return true
		}
		g.stack = g.stack[:len(g.stack)-1]
		if len(g.stack) > 0 {
			newTop := &g.stack[len(g.stack)-1]
			g.uncommit(newTop)
			g.settleGroup(newTop.pis[:newTop.npis])
		}
	}
	return false
}

// deriveGroup turns the current node's objective into a decision
// group: the backtraced objective PI first, then up to kMax−1 further
// unassigned support PIs so the settle enumerates their combinations
// too.  pref encodes the objective's preferred values.
func (g *gen[V]) deriveGroup(f *faults.Fault, top *grpRec[V]) ([]int, int, bool) {
	lane := top.lane
	eff := g.effAsg(top)
	sig, want, ok := g.objective(f, top, lane)
	if !ok {
		return nil, 0, false
	}
	pi, val, ok := g.backtrace(sig, want, lane, eff)
	if !ok {
		return nil, 0, false
	}
	pis := make([]int, 0, g.kMax)
	pis = append(pis, pi)
	pref := 0
	if val == logic.One {
		pref = 1
	}
	for _, cand := range g.supPIs {
		if len(pis) >= g.kMax {
			break
		}
		if eff[cand] != logic.X || groupPos(pis, cand) >= 0 {
			continue
		}
		pis = append(pis, cand)
	}
	return pis, pref, true
}

// objective produces the next (signal, value) requirement at the
// current node: fault activation while the site is uncontrolled, then
// D-propagation through the best X-path frontier gate.
func (g *gen[V]) objective(f *faults.Fault, top *grpRec[V], lane int) (netlist.SigID, logic.V, bool) {
	site := f.Site(g.c)
	if !top.dnow.Has(lane) {
		want := activationValue(f)
		gv := laneVal(g.good, site, lane)
		if gv == logic.X {
			return site, want, true
		}
		if gv != want {
			return 0, 0, false // activation contradicted on this branch
		}
		// Site is driven to the excitation value but no D materialised.
		switch f.Type {
		case faults.SlowRise, faults.SlowFall:
			// The faulty gate's previous output already matches the
			// good value, so this frame cannot excite the delay fault.
			return 0, 0, false
		case faults.InputSA:
			// The stuck pin differs but the gate output is masked by
			// side inputs: sensitise the fault gate itself.
			return g.gateObjective(f.Gate, f, lane)
		}
		return 0, 0, false
	}
	// D-frontier: the highest-level gate fed by a definite difference
	// whose output is still X-ish and can reach an undecided output.
	bestGate, bestLevel := -1, -1
	netlist.EachSet(g.cone, nil, nil, func(s netlist.SigID) {
		if !g.defDiff(s, lane) {
			return
		}
		for _, gi := range g.topo.Readers[s] {
			out := g.c.GateOutput(gi)
			if g.defDiff(out, lane) {
				continue // difference already through this gate
			}
			gv := laneVal(g.good, out, lane)
			fv := laneVal(g.faulty, out, lane)
			if gv != logic.X && fv != logic.X {
				continue // definitely equal: propagation blocked here
			}
			if !g.xpathOpen(out, lane) {
				continue
			}
			if g.topo.Level[gi] > bestLevel {
				bestLevel, bestGate = g.topo.Level[gi], gi
			}
		}
	})
	if bestGate < 0 {
		return 0, 0, false
	}
	return g.gateObjective(bestGate, f, lane)
}

// defDiff reports a definite good/faulty difference (a D or D̄) at s.
func (g *gen[V]) defDiff(s netlist.SigID, lane int) bool {
	g1, g0 := g.good.Definite(s)
	f1, f0 := g.faulty.Definite(s)
	return g1.And(f0).Or(g0.And(f1)).Has(lane)
}

// xpathOpen reports whether some primary output reachable from signal
// s is not yet definitely equal across the machines — the X-path
// check, read off the Topology cone bitsets.
func (g *gen[V]) xpathOpen(s netlist.SigID, lane int) bool {
	cone := g.topo.ConeOf(s)
	for _, j := range g.coneOuts {
		out := g.c.Outputs[j]
		if !bitset(cone, out) {
			continue
		}
		gv := laneVal(g.good, out, lane)
		fv := laneVal(g.faulty, out, lane)
		if gv == logic.X || fv == logic.X || gv != fv {
			return true
		}
	}
	return false
}

// activationValue is the good-machine value at the fault site that
// excites the fault.
func activationValue(f *faults.Fault) logic.V {
	switch f.Type {
	case faults.SlowRise:
		return logic.One
	case faults.SlowFall:
		return logic.Zero
	}
	return f.Value.Not()
}

// gateObjective picks an X side input of gate gi, and a value for it,
// that sensitises the good/faulty difference through the gate (exact
// table evaluation on both machines' lane values; the fault pin is
// overridden when gi is the fault gate).
func (g *gen[V]) gateObjective(gi int, f *faults.Fault, lane int) (netlist.SigID, logic.V, bool) {
	gate := &g.c.Gates[gi]
	out := g.c.GateOutput(gi)
	for _, fin := range gate.Fanin {
		g.sv[fin] = laneVal(g.good, fin, lane)
		g.fsv[fin] = laneVal(g.faulty, fin, lane)
	}
	g.sv[out] = laneVal(g.good, out, lane)
	g.fsv[out] = laneVal(g.faulty, out, lane)
	pin := -1
	if f.Type == faults.InputSA && gi == f.Gate {
		pin = f.Pin
	}
	var candSig netlist.SigID
	var candVal logic.V
	candCost := int32(1) << 30
	haveCand := false
	for _, fin := range gate.Fanin {
		if g.sv[fin] != logic.X || g.fsv[fin] != logic.X {
			continue
		}
		for _, t := range [2]logic.V{logic.One, logic.Zero} {
			g.sv[fin], g.fsv[fin] = t, t
			gv := g.c.EvalTernary(gi, g.sv)
			fv := g.c.EvalTernaryPinned(gi, g.fsv, pin, f.Value)
			g.sv[fin], g.fsv[fin] = logic.X, logic.X
			if gv.IsDefinite() && fv.IsDefinite() {
				if gv != fv {
					return fin, t, true // sensitised outright
				}
				continue // masks the difference
			}
			cost := g.ccCost(fin, t)
			if !haveCand || cost < candCost {
				candSig, candVal, candCost, haveCand = fin, t, cost, true
			}
		}
	}
	if haveCand {
		return candSig, candVal, true
	}
	return 0, 0, false
}

func (g *gen[V]) ccCost(s netlist.SigID, t logic.V) int32 {
	if t == logic.One {
		return g.cc1[s]
	}
	return g.cc0[s]
}

// backtrace walks an objective back to one unassigned primary input,
// choosing at each gate the X fanin (and value) that forces the wanted
// output when possible — easiest by controllability — and otherwise
// the hardest X fanin that keeps it achievable (classic PODEM
// multiple-backtrace heuristics, single-path form).
func (g *gen[V]) backtrace(sig netlist.SigID, want logic.V, lane int, eff logic.Vec) (int, logic.V, bool) {
	m := g.c.NumInputs()
	g.stamp++
	for int(sig) >= m {
		gi := g.c.GateOf(sig)
		if g.smark[sig] == g.stamp {
			return 0, 0, false // feedback loop: give up this objective
		}
		g.smark[sig] = g.stamp
		gate := &g.c.Gates[gi]
		for _, fin := range gate.Fanin {
			g.sv[fin] = laneVal(g.good, fin, lane)
		}
		g.sv[sig] = laneVal(g.good, sig, lane)
		bestP, bestT, bestCost := -1, logic.X, int32(0)
		perfect := false
		for p, fin := range gate.Fanin {
			if g.sv[fin] != logic.X {
				continue
			}
			for _, t := range [2]logic.V{logic.One, logic.Zero} {
				outv := g.c.EvalTernaryPinned(gi, g.sv, p, t)
				cost := g.ccCost(fin, t)
				if outv == want {
					if !perfect || cost < bestCost {
						bestP, bestT, bestCost, perfect = p, t, cost, true
					}
				} else if outv == logic.X && !perfect {
					// Keep the hardest undecided pin: fail fast on
					// the all-inputs-required case.
					if bestP < 0 || cost > bestCost {
						bestP, bestT, bestCost = p, t, cost
					}
				}
			}
		}
		if bestP < 0 {
			return 0, 0, false
		}
		sig, want = gate.Fanin[bestP], bestT
	}
	if eff[sig] != logic.X {
		return 0, 0, false // landed on an already-committed input
	}
	return int(sig), want, true
}

// complete fills the unassigned inputs of an effective assignment and
// validates the vector on the scalar oracle: the good machine must
// settle fully definite (the synchronous-test validity condition).
// Returns frameDetect when a primary output differs definitely,
// frameAdvance when only interior cone signals do.
func (g *gen[V]) complete(f *faults.Fault, goodSt, faultySt logic.Vec, eff logic.Vec) (uint64, frameKind) {
	m := g.c.NumInputs()
	var base uint64
	g.xbits = g.xbits[:0]
	for i := 0; i < m; i++ {
		switch eff[i] {
		case logic.One:
			base |= 1 << uint(i)
		case logic.Zero:
		default:
			g.xbits = append(g.xbits, i)
			// Hold the previous frame's rail value: the minimal-change
			// filling disturbs the settled state least.
			if goodSt[i] == logic.One {
				base |= 1 << uint(i)
			}
		}
	}
	try := func(vec uint64) (uint64, frameKind) {
		r := g.gbuf.ApplyVector(g.c, goodSt, vec, nil)
		if !r.Definite() {
			return 0, frameFail
		}
		fr := g.fbuf.ApplyVector(g.c, faultySt, vec, f)
		for _, j := range g.coneOuts {
			s := g.c.Outputs[j]
			gv, fv := r.State[s], fr.State[s]
			if fv.IsDefinite() && gv != fv {
				return vec, frameDetect
			}
		}
		kind := frameFail
		netlist.EachSet(g.cone, nil, nil, func(s netlist.SigID) {
			gv, fv := r.State[s], fr.State[s]
			if gv.IsDefinite() && fv.IsDefinite() && gv != fv {
				kind = frameAdvance
			}
		})
		return vec, kind
	}
	if vec, kind := try(base); kind != frameFail {
		return vec, kind
	}
	for _, xb := range g.xbits {
		if vec, kind := try(base ^ 1<<uint(xb)); kind != frameFail {
			return vec, kind
		}
	}
	return 0, frameFail
}
