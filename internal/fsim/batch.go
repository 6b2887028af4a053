package fsim

import (
	"fmt"
	"sync"

	"repro/internal/lanevec"
	"repro/internal/netlist"
)

// DefaultLanes is the default lane width of the pattern-parallel
// simulator: 64 independent test sequences per machine word.
// Options.Lanes widens a Simulator to 256 lanes (four words per
// vector).
const DefaultLanes = 64

// Batch is a set of independent test sequences (at most the simulator's
// lane width), all applied from the circuit's reset state.  Lane l
// carries Seqs[l]; sequences may have different lengths (ragged batches
// are fine — a lane stops participating in detection once its sequence
// is exhausted).
type Batch struct {
	// Seqs holds one pattern sequence per lane: primary-input vectors
	// (input i at bit i), applied in order from reset.
	Seqs [][]uint64
	// Expected optionally carries the known good-circuit responses, one
	// output vector (output j at bit j) per pattern of the matching
	// sequence.  When set, detection is judged against these exact
	// responses (the CSSG/tester view); when nil, the simulator runs the
	// good machine itself and judges against its definite outputs.
	Expected [][]uint64
	// ResetExpected optionally declares, per lane, the output vector the
	// tester expects before the first pattern (tester.Program's
	// ResetExpected).  Only consulted when Options.CheckReset is on;
	// when nil, the reset verdict is judged against the good machine's
	// own settled reset response.
	ResetExpected []uint64
}

// NumLanes returns the number of sequences in the batch.
func (b *Batch) NumLanes() int { return len(b.Seqs) }

// Cycles returns the length of the longest sequence.
func (b *Batch) Cycles() int {
	max := 0
	for _, s := range b.Seqs {
		if len(s) > max {
			max = len(s)
		}
	}
	return max
}

// validate checks lane count against the simulator width and the
// Expected shape.
func (b *Batch) validate(width int) error {
	if len(b.Seqs) == 0 {
		return fmt.Errorf("fsim: empty batch")
	}
	if len(b.Seqs) > width {
		return fmt.Errorf("fsim: %d sequences exceed %d lanes", len(b.Seqs), width)
	}
	if b.Expected != nil {
		if len(b.Expected) != len(b.Seqs) {
			return fmt.Errorf("fsim: %d expected traces for %d sequences", len(b.Expected), len(b.Seqs))
		}
		for l, e := range b.Expected {
			if len(e) != len(b.Seqs[l]) {
				return fmt.Errorf("fsim: lane %d: %d expected responses for %d patterns", l, len(e), len(b.Seqs[l]))
			}
		}
	}
	if b.ResetExpected != nil && len(b.ResetExpected) != len(b.Seqs) {
		return fmt.Errorf("fsim: %d reset expectations for %d sequences", len(b.ResetExpected), len(b.Seqs))
	}
	return nil
}

// grow returns buf resized to n zeroed elements, reallocating (and
// counting the allocation) only when the capacity is short.  The
// engine-owned packedBatch arenas go through here, so steady-state
// batches of the same shape allocate nothing.
func grow[E any](buf []E, n int, allocs *int64) []E {
	if cap(buf) < n {
		*allocs++
		return make([]E, n)
	}
	buf = buf[:n]
	var zero E
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// packedBatch is the lane-transposed form shared read-only by all
// workers: per cycle, one lane vector per primary input, plus the
// good-response trace as per-output definite vectors.  The backing
// arenas (railsFlat and friends) are engine-owned and reused across
// batches; pack reslices them instead of allocating.
type packedBatch[V lanevec.Vec[V]] struct {
	all    V     // mask of lanes in use
	cycles int   // longest sequence length
	rails  [][]V // [cycle][input]: lane vector of input values
	live   []V   // [cycle]: lanes whose sequence includes this cycle

	// Good-circuit response trace (definite values only).  These may
	// alias the cached goodTrace's vectors (never written through) or
	// the exp*/reset* arenas below (declared Expected).
	good1, good0   [][]V // [cycle][output]
	reset1, reset0 []V   // [output], before any pattern

	// Reusable backing arenas.
	railsFlat []V
	expRows   [][]V
	expFlat   []V
	resetFlat []V
}

// pack transposes the batch into lane vectors, reusing pk's arenas.
// Lanes whose sequence is shorter than the batch keep re-applying their
// last pattern (holding a settled state is idempotent) but are masked
// out of detection by live.
func pack[V lanevec.Vec[V]](c *netlist.Circuit, b *Batch, pk *packedBatch[V], allocs *int64) error {
	var zero V
	if err := b.validate(zero.Size()); err != nil {
		return err
	}
	nl := len(b.Seqs)
	pk.cycles = b.Cycles()
	pk.all = zero.FirstN(nl)
	pk.good1, pk.good0 = nil, nil
	pk.reset1, pk.reset0 = nil, nil
	m := c.NumInputs()
	resetRails := c.InputBitsW(c.InitWords())
	pk.railsFlat = grow(pk.railsFlat, pk.cycles*m, allocs)
	pk.live = grow(pk.live, pk.cycles, allocs)
	pk.rails = grow(pk.rails, pk.cycles, allocs)
	for t := 0; t < pk.cycles; t++ {
		words := pk.railsFlat[t*m : (t+1)*m : (t+1)*m]
		for l, seq := range b.Seqs {
			var pat uint64
			switch {
			case t < len(seq):
				pat = seq[t]
				pk.live[t] = pk.live[t].WithBit(l)
			case len(seq) > 0:
				pat = seq[len(seq)-1]
			default:
				pat = resetRails
			}
			for i := 0; i < m; i++ {
				if pat>>uint(i)&1 == 1 {
					words[i] = words[i].WithBit(l)
				}
			}
		}
		pk.rails[t] = words
	}
	return nil
}

// traceFromExpected fills the good-response vectors from the batch's
// declared expected outputs (definite by construction).
func (pk *packedBatch[V]) traceFromExpected(c *netlist.Circuit, b *Batch, allocs *int64) {
	no := len(c.Outputs)
	pk.expFlat = grow(pk.expFlat, 2*pk.cycles*no, allocs)
	pk.expRows = grow(pk.expRows, 2*pk.cycles, allocs)
	pk.good1 = pk.expRows[:pk.cycles]
	pk.good0 = pk.expRows[pk.cycles:]
	for t := 0; t < pk.cycles; t++ {
		g1 := pk.expFlat[2*t*no : (2*t+1)*no : (2*t+1)*no]
		g0 := pk.expFlat[(2*t+1)*no : (2*t+2)*no : (2*t+2)*no]
		for l, e := range b.Expected {
			if t >= len(e) {
				continue // lane not live; detection is masked anyway
			}
			for j := 0; j < no; j++ {
				if e[t]>>uint(j)&1 == 1 {
					g1[j] = g1[j].WithBit(l)
				} else {
					g0[j] = g0[j].WithBit(l)
				}
			}
		}
		pk.good1[t], pk.good0[t] = g1, g0
	}
}

// traceFromResetExpected fills the reset-response vectors from the
// batch's declared per-lane reset expectations.
func (pk *packedBatch[V]) traceFromResetExpected(c *netlist.Circuit, b *Batch, allocs *int64) {
	no := len(c.Outputs)
	pk.resetFlat = grow(pk.resetFlat, 2*no, allocs)
	pk.reset1 = pk.resetFlat[:no:no]
	pk.reset0 = pk.resetFlat[no : 2*no : 2*no]
	for l, e := range b.ResetExpected {
		for j := 0; j < no; j++ {
			if e>>uint(j)&1 == 1 {
				pk.reset1[j] = pk.reset1[j].WithBit(l)
			} else {
				pk.reset0[j] = pk.reset0[j].WithBit(l)
			}
		}
	}
}

// goodTrace is the good machine's definite response trace over one
// batch's rails: the cacheable part of a packedBatch.  good1/good0 stay
// nil until some batch actually needs per-cycle good responses (a batch
// that declares Expected only ever needs the reset pair).
//
// The event-driven engine additionally needs the good machine's FULL
// state — every signal, not just the outputs — at both settling
// fixpoints of every cycle: a faulty machine only re-simulates the
// fanout cone of its fault, and the signals outside the cone are
// served from these vectors.  Phase A of a cone settle must see the
// out-of-cone signals at the good machine's raised (algorithm-A)
// fixpoint and phase B at the settled (algorithm-B) fixpoint, or the
// cone's own fixpoints would not match the full simulation's.  The
// state trace is filled only when an event engine asks (runEvents);
// stateB doubles as the source of good1/good0.
//
// All per-cycle matrices are carved out of single flat backing arrays:
// a trace costs a handful of allocations however many cycles it spans,
// and the rows stay cache-contiguous.
type goodTrace[V lanevec.Vec[V]] struct {
	all            V // active-lane mask the trace was recorded under
	reset1, reset0 []V
	good1, good0   [][]V

	resetA1, resetA0 []V   // full state at the reset A fixpoint
	resetB1, resetB0 []V   // full state at the reset B fixpoint
	stateA1, stateA0 [][]V // [cycle][signal], A fixpoint
	stateB1, stateB0 [][]V // [cycle][signal], B fixpoint

	allocs int64 // backing-array allocations recording it cost

	diffsOnce sync.Once
	df        *traceDiffs // lazily derived from the state trace
}

// diffs returns the per-cycle diff bitsets, computing them once per
// trace (the trace is shared across Simulators via the cache, and the
// diffs are a pure function of it).
func (tr *goodTrace[V]) diffs(c *netlist.Circuit) *traceDiffs {
	tr.diffsOnce.Do(func() { tr.df = computeDiffs(c, tr) })
	return tr.df
}

// hasStates reports whether the full-state trace has been recorded.
func (tr *goodTrace[V]) hasStates() bool { return tr.resetA1 != nil }

// defOutputsInto extracts the definite output vectors from a full state.
func defOutputsInto[V lanevec.Vec[V]](c *netlist.Circuit, p1, p0, d1, d0 []V) {
	for j, sig := range c.Outputs {
		d1[j] = p1[sig].AndNot(p0[sig])
		d0[j] = p0[sig].AndNot(p1[sig])
	}
}

// arena2 carves a cycles×n matrix pair out of one flat backing array.
func arena2[V lanevec.Vec[V]](cycles, n int) (r1, r0 [][]V) {
	flat := make([]V, 2*cycles*n)
	r1 = make([][]V, cycles)
	r0 = make([][]V, cycles)
	for t := 0; t < cycles; t++ {
		r1[t] = flat[2*t*n : (2*t+1)*n : (2*t+1)*n]
		r0[t] = flat[(2*t+1)*n : (2*t+2)*n : (2*t+2)*n]
	}
	return r1, r0
}

// run simulates the good machine over the rails, filling the reset pair
// and, when cycles is true, the per-cycle definite output vectors.
func (tr *goodTrace[V]) run(m *machine[V], pk *packedBatch[V], cycles bool) {
	c := m.eng.Circuit()
	no := len(c.Outputs)
	def := func(d1, d0 []V) {
		for j, sig := range c.Outputs {
			d1[j], d0[j] = m.eng.Definite(sig)
		}
	}
	m.setAll(pk.all)
	tr.all = pk.all
	m.eng.Inject(nil)
	m.reset()
	rflat := make([]V, 2*no)
	tr.reset1, tr.reset0 = rflat[:no:no], rflat[no:]
	tr.allocs++
	def(tr.reset1, tr.reset0)
	if !cycles {
		return
	}
	tr.good1, tr.good0 = arena2[V](pk.cycles, no)
	tr.allocs += 3
	for t := 0; t < pk.cycles; t++ {
		m.apply(pk.rails[t])
		def(tr.good1[t], tr.good0[t])
	}
}

// runEvents simulates the good machine event-driven, recording the
// full state at every phase fixpoint (reset and per cycle) alongside
// the output trace.  The event settle is bit-identical to the sweeps
// (both phases are confluent chaotic iterations), so a trace recorded
// here serves sweep-engine batches too.
func (tr *goodTrace[V]) runEvents(m *machine[V], pk *packedBatch[V], topo *netlist.Topology) {
	e := m.eng
	c := e.Circuit()
	n := c.NumSignals()
	no := len(c.Outputs)
	m.setAll(pk.all)
	tr.all = pk.all
	e.InitEvents(topo)
	e.ClearOverrides()
	e.SetGateMask(nil)

	resetFlat := make([]V, 4*n+2*no)
	tr.resetA1, resetFlat = resetFlat[:n:n], resetFlat[n:]
	tr.resetA0, resetFlat = resetFlat[:n:n], resetFlat[n:]
	tr.resetB1, resetFlat = resetFlat[:n:n], resetFlat[n:]
	tr.resetB0, resetFlat = resetFlat[:n:n], resetFlat[n:]
	tr.reset1, tr.reset0 = resetFlat[:no:no], resetFlat[no:]
	tr.stateA1, tr.stateA0 = arena2[V](pk.cycles, n)
	tr.stateB1, tr.stateB0 = arena2[V](pk.cycles, n)
	tr.good1, tr.good0 = arena2[V](pk.cycles, no)
	tr.allocs += 1 + 3*3

	e.LoadInit()
	e.EnqueueMaskGates()
	e.RunRaise()
	e.CopyState(tr.resetA1, tr.resetA0)
	e.EnqueueMaskGates()
	e.RunLower()
	e.CopyState(tr.resetB1, tr.resetB0)
	defOutputsInto(c, tr.resetB1, tr.resetB0, tr.reset1, tr.reset0)

	all := e.All()
	for t := 0; t < pk.cycles; t++ {
		e.ClearActivity()
		for i := 0; i < c.NumInputs(); i++ {
			w := pk.rails[t][i].And(all)
			e.MarkSignal(netlist.SigID(i), w, all.AndNot(w))
		}
		e.SeedFromActivity()
		e.RunRaise()
		e.CopyState(tr.stateA1[t], tr.stateA0[t])
		e.SeedFromActivity()
		e.RunLower()
		e.CopyState(tr.stateB1[t], tr.stateB0[t])
		defOutputsInto(c, tr.stateB1[t], tr.stateB0[t], tr.good1[t], tr.good0[t])
	}
}

// traceDiffs indexes, per cycle, the signals whose good-trace value
// changes at each phase boundary, as Words-wide signal bitsets (signal
// s at bit s%64 of word s/64): ra holds the signals the reset A
// fixpoint moved off the declared initial values (the good machine's
// reset raise activity — what a lazily-seeded fault run must rewind
// inside its cone), rb those differing between the two reset
// fixpoints, a[t] those whose A fixpoint differs from the previous
// cycle's B fixpoint (reset for t=0) and b[t] those whose B fixpoint
// differs from the same cycle's A fixpoint.  They are
// fault-independent, computed once per batch, and the word encoding is
// what lets each fault run intersect them with its cone and support
// masks at word granularity (netlist.EachSet) instead of testing cone
// membership per listed signal.
type traceDiffs struct {
	w  int // signal-bitset stride in words
	ra []uint64
	rb []uint64
	a  [][]uint64
	b  [][]uint64

	allocs int64 // backing-array allocations computing them cost
}

// diffStatesW marks into dst the signals where the two states differ.
func diffStatesW[V lanevec.Vec[V]](n int, a1, a0, b1, b0 []V, dst []uint64) {
	for s := 0; s < n; s++ {
		if !a1[s].Eq(b1[s]) || !a0[s].Eq(b0[s]) {
			dst[s>>6] |= 1 << uint(s&63)
		}
	}
}

func computeDiffs[V lanevec.Vec[V]](c *netlist.Circuit, tr *goodTrace[V]) *traceDiffs {
	n := c.NumSignals()
	W := c.StateWords()
	cycles := len(tr.stateA1)
	flat := make([]uint64, (2+2*cycles)*W)
	df := &traceDiffs{
		w:      W,
		a:      make([][]uint64, cycles),
		b:      make([][]uint64, cycles),
		allocs: 3,
	}
	df.ra, flat = flat[:W:W], flat[W:]
	df.rb, flat = flat[:W:W], flat[W:]

	// ra: compare the reset A fixpoint against the declared init values
	// expanded to the trace's active lanes.
	initW := c.InitWords()
	var zero V
	all := tr.all
	for s := 0; s < n; s++ {
		i1, i0 := zero, all
		if initW[s>>6]>>uint(s&63)&1 == 1 {
			i1, i0 = all, zero
		}
		if !tr.resetA1[s].Eq(i1) || !tr.resetA0[s].Eq(i0) {
			df.ra[s>>6] |= 1 << uint(s&63)
		}
	}
	diffStatesW(n, tr.resetB1, tr.resetB0, tr.resetA1, tr.resetA0, df.rb)
	prev1, prev0 := tr.resetB1, tr.resetB0
	for t := range tr.stateA1 {
		df.a[t], flat = flat[:W:W], flat[W:]
		df.b[t], flat = flat[:W:W], flat[W:]
		diffStatesW(n, tr.stateA1[t], tr.stateA0[t], prev1, prev0, df.a[t])
		diffStatesW(n, tr.stateB1[t], tr.stateB0[t], tr.stateA1[t], tr.stateA0[t], df.b[t])
		prev1, prev0 = tr.stateB1[t], tr.stateB0[t]
	}
	return df
}
