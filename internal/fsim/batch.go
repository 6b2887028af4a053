package fsim

import (
	"fmt"

	"repro/internal/lanevec"
	"repro/internal/netlist"
)

// Lanes is the lane width of the pattern-parallel simulator: 64
// independent test sequences per batch, one bit of a machine word per
// lane.
const Lanes = lanevec.Lanes

// Batch is a set of independent test sequences (at most Lanes), all
// applied from the circuit's reset state.  Lane l carries Seqs[l];
// sequences may have different lengths (ragged batches are fine — a
// lane stops participating in detection once its sequence is
// exhausted).
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

// validate checks the lane count and the Expected shape.
func (b *Batch) validate() error {
	if len(b.Seqs) == 0 {
		return fmt.Errorf("fsim: empty batch")
	}
	if len(b.Seqs) > Lanes {
		return fmt.Errorf("fsim: %d sequences exceed %d lanes", len(b.Seqs), Lanes)
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

// grow returns buf resized to n zeroed words, reallocating (and
// counting the allocation) only when the capacity is short.  The
// Simulator-owned packedBatch arenas go through here, so steady-state
// batches of the same shape allocate nothing.
func grow(buf []uint64, n int, allocs *int64) []uint64 {
	if cap(buf) < n {
		*allocs++
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// growRows is grow for row headers, which the caller overwrites whole.
func growRows(buf [][]uint64, n int, allocs *int64) [][]uint64 {
	if cap(buf) < n {
		*allocs++
		return make([][]uint64, n)
	}
	return buf[:n]
}

// packedBatch is the lane-transposed form shared read-only by all
// workers: per cycle, one lane word per primary input, plus the
// good-response trace as per-output definite words.  The backing
// arenas (railsFlat and friends) are Simulator-owned and reused across
// batches; pack reslices them instead of allocating.
type packedBatch struct {
	all    uint64     // mask of lanes in use
	cycles int        // longest sequence length
	rails  [][]uint64 // [cycle][input]: lane word of input values
	live   []uint64   // [cycle]: lanes whose sequence includes this cycle

	// Good-circuit response trace (definite values only).  These may
	// alias the Simulator's goodTrace words (never written through) or
	// the exp*/reset* arenas below (declared Expected).
	good1, good0   [][]uint64 // [cycle][output]
	reset1, reset0 []uint64   // [output], before any pattern

	// Reusable backing arenas.
	railsFlat []uint64
	expRows   [][]uint64
	expFlat   []uint64
	resetFlat []uint64
}

// pack transposes the batch into lane words, reusing pk's arenas.
// Lanes whose sequence is shorter than the batch keep re-applying their
// last pattern (holding a settled state is idempotent) but are masked
// out of detection by live.
func pack(c *netlist.Circuit, b *Batch, pk *packedBatch, allocs *int64) error {
	if err := b.validate(); err != nil {
		return err
	}
	pk.cycles = b.Cycles()
	pk.all = uint64(1)<<uint(len(b.Seqs)) - 1 // shifting by 64 gives 0: all ones
	pk.good1, pk.good0 = nil, nil
	pk.reset1, pk.reset0 = nil, nil
	m := c.NumInputs()
	resetRails := c.Init[:m].Bits() // the inputs are signals 0..m-1
	pk.railsFlat = grow(pk.railsFlat, pk.cycles*m, allocs)
	pk.live = grow(pk.live, pk.cycles, allocs)
	pk.rails = growRows(pk.rails, pk.cycles, allocs)
	for t := 0; t < pk.cycles; t++ {
		words := pk.railsFlat[t*m : (t+1)*m : (t+1)*m]
		for l, seq := range b.Seqs {
			var pat uint64
			switch {
			case t < len(seq):
				pat = seq[t]
				pk.live[t] |= 1 << uint(l)
			case len(seq) > 0:
				pat = seq[len(seq)-1]
			default:
				pat = resetRails
			}
			for i := 0; i < m; i++ {
				words[i] |= pat >> uint(i) & 1 << uint(l)
			}
		}
		pk.rails[t] = words
	}
	return nil
}

// traceFromExpected fills the good-response words from the batch's
// declared expected outputs (definite by construction).
func (pk *packedBatch) traceFromExpected(c *netlist.Circuit, b *Batch, allocs *int64) {
	no := len(c.Outputs)
	cv := carve(&pk.expFlat, &pk.expRows, 2*pk.cycles*no, 2*pk.cycles, allocs)
	pk.good1, pk.good0 = cv.pair(pk.cycles, no)
	for t := 0; t < pk.cycles; t++ {
		g1, g0 := pk.good1[t], pk.good0[t]
		for l, e := range b.Expected {
			if t >= len(e) {
				continue // lane not live; detection is masked anyway
			}
			for j := 0; j < no; j++ {
				if e[t]>>uint(j)&1 == 1 {
					g1[j] |= 1 << uint(l)
				} else {
					g0[j] |= 1 << uint(l)
				}
			}
		}
	}
}

// traceFromResetExpected fills the reset-response words from the
// batch's declared per-lane reset expectations.
func (pk *packedBatch) traceFromResetExpected(c *netlist.Circuit, b *Batch, allocs *int64) {
	no := len(c.Outputs)
	pk.resetFlat = grow(pk.resetFlat, 2*no, allocs)
	pk.reset1 = pk.resetFlat[:no:no]
	pk.reset0 = pk.resetFlat[no : 2*no : 2*no]
	for l, e := range b.ResetExpected {
		for j := 0; j < no; j++ {
			if e>>uint(j)&1 == 1 {
				pk.reset1[j] |= 1 << uint(l)
			} else {
				pk.reset0[j] |= 1 << uint(l)
			}
		}
	}
}

// goodTrace is the good machine's definite response trace over one
// batch's rails.  Each Simulator owns one and records it afresh for
// every batch that needs a good run, into backing arrays it grows and
// reuses like the packedBatch arenas; workers only read it, and batches
// on one Simulator never overlap.
//
// The event-driven engine additionally needs the good machine's FULL
// state — every signal, not just the outputs — at both settling
// fixpoints of every cycle: a faulty machine only re-simulates the
// fanout cone of its fault, and the signals outside the cone are
// served from these words.  Phase A of a cone settle must see the
// out-of-cone signals at the good machine's raised (algorithm-A)
// fixpoint and phase B at the settled (algorithm-B) fixpoint, or the
// cone's own fixpoints would not match the full simulation's.  The
// state trace is filled only by the event engine (runEvents); stateB
// doubles as the source of good1/good0.  The sweep oracle records its
// own outputs-only trace (run).
type goodTrace struct {
	all            uint64 // active-lane mask the trace was recorded under
	reset1, reset0 []uint64
	good1, good0   [][]uint64 // [cycle][output]; nil when not recorded

	resetA1, resetA0 []uint64   // full state at the reset A fixpoint
	resetB1, resetB0 []uint64   // full state at the reset B fixpoint
	stateA1, stateA0 [][]uint64 // [cycle][signal], A fixpoint
	stateB1, stateB0 [][]uint64 // [cycle][signal], B fixpoint

	// Reusable backing arrays every vector and matrix row above is
	// carved from.
	flat []uint64
	rows [][]uint64
}

// defOutputsInto extracts the definite output words from a full state.
func defOutputsInto(c *netlist.Circuit, p1, p0, d1, d0 []uint64) {
	for j, sig := range c.Outputs {
		d1[j] = p1[sig] &^ p0[sig]
		d0[j] = p0[sig] &^ p1[sig]
	}
}

// carver hands out consecutive pieces of a pair of backing arrays.
type carver struct {
	flat []uint64
	rows [][]uint64
}

// words carves the next n words.
func (cv *carver) words(n int) []uint64 {
	w := cv.flat[:n:n]
	cv.flat = cv.flat[n:]
	return w
}

// pair carves a cycles×n matrix pair, the two rows of a cycle adjacent.
func (cv *carver) pair(cycles, n int) (r1, r0 [][]uint64) {
	r1, r0 = cv.rows[:cycles:cycles], cv.rows[cycles:2*cycles:2*cycles]
	cv.rows = cv.rows[2*cycles:]
	for t := 0; t < cycles; t++ {
		r1[t], r0[t] = cv.words(n), cv.words(n)
	}
	return r1, r0
}

// carve grows a pair of reusable backing arrays to nw zeroed words and
// nr row headers and returns a carver over them.
func carve(flat *[]uint64, rows *[][]uint64, nw, nr int, allocs *int64) carver {
	*flat = grow(*flat, nw, allocs)
	*rows = growRows(*rows, nr, allocs)
	return carver{*flat, *rows}
}

// run simulates the good machine over the rails, filling the reset pair
// and, when cycles is true, the per-cycle definite output words.
func (tr *goodTrace) run(m *machine, pk *packedBatch, cycles bool, allocs *int64) {
	c := m.eng.Circuit()
	no := len(c.Outputs)
	def := func(d1, d0 []uint64) {
		for j, sig := range c.Outputs {
			d1[j], d0[j] = m.eng.Definite(sig)
		}
	}
	m.setAll(pk.all)
	tr.all = pk.all
	m.eng.Inject(nil)
	m.reset()
	nc := 0
	if cycles {
		nc = pk.cycles
	}
	cv := carve(&tr.flat, &tr.rows, 2*no*(1+nc), 2*nc, allocs)
	tr.reset1, tr.reset0 = cv.words(no), cv.words(no)
	def(tr.reset1, tr.reset0)
	tr.good1, tr.good0 = nil, nil
	if !cycles {
		return
	}
	tr.good1, tr.good0 = cv.pair(nc, no)
	for t := 0; t < nc; t++ {
		m.apply(pk.rails[t])
		def(tr.good1[t], tr.good0[t])
	}
}

// runEvents simulates the good machine event-driven, recording the
// full state at every phase fixpoint (reset and per cycle) alongside
// the output trace.  The event settle is bit-identical to the sweeps
// (both phases are confluent chaotic iterations).
func (tr *goodTrace) runEvents(m *machine, pk *packedBatch, topo *netlist.Topology, allocs *int64) {
	e := m.eng
	c := e.Circuit()
	n := c.NumSignals()
	no := len(c.Outputs)
	m.setAll(pk.all)
	tr.all = pk.all
	e.InitEvents(topo)
	e.ClearOverrides()
	e.SetGateMask(nil)

	cycles := pk.cycles
	cv := carve(&tr.flat, &tr.rows, (4+4*cycles)*n+(2+2*cycles)*no, 6*cycles, allocs)
	tr.resetA1, tr.resetA0 = cv.words(n), cv.words(n)
	tr.resetB1, tr.resetB0 = cv.words(n), cv.words(n)
	tr.reset1, tr.reset0 = cv.words(no), cv.words(no)
	tr.stateA1, tr.stateA0 = cv.pair(cycles, n)
	tr.stateB1, tr.stateB0 = cv.pair(cycles, n)
	tr.good1, tr.good0 = cv.pair(cycles, no)

	e.LoadInit()
	e.EnqueueMaskGates()
	e.RunRaise()
	e.CopyState(tr.resetA1, tr.resetA0)
	e.EnqueueMaskGates()
	e.RunLower()
	e.CopyState(tr.resetB1, tr.resetB0)
	defOutputsInto(c, tr.resetB1, tr.resetB0, tr.reset1, tr.reset0)

	all := e.All()
	for t := 0; t < cycles; t++ {
		e.ClearActivity()
		for i := 0; i < c.NumInputs(); i++ {
			w := pk.rails[t][i] & all
			e.MarkSignal(netlist.SigID(i), w, all&^w)
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
// fault-independent, computed once per batch right after the trace and
// before any worker starts, and the word encoding is what lets each
// fault run intersect them with its cone and support masks at word
// granularity (netlist.EachSet) instead of testing cone membership per
// listed signal.  Like the trace, each Simulator owns one and reuses
// its arrays.
type traceDiffs struct {
	w  int // signal-bitset stride in words
	ra []uint64
	rb []uint64
	a  [][]uint64
	b  [][]uint64

	// Reusable backing arrays.
	flat []uint64
	rows [][]uint64
}

// diffStatesW marks into dst the signals where the two states differ.
func diffStatesW(n int, a1, a0, b1, b0, dst []uint64) {
	for s := 0; s < n; s++ {
		if a1[s] != b1[s] || a0[s] != b0[s] {
			dst[s>>6] |= 1 << uint(s&63)
		}
	}
}

// compute derives the diff bitsets of the trace; initW is the circuit's
// packed initial state.
func (df *traceDiffs) compute(c *netlist.Circuit, tr *goodTrace, initW []uint64, allocs *int64) {
	n := c.NumSignals()
	W := c.StateWords()
	cycles := len(tr.stateA1)
	df.w = W
	cv := carve(&df.flat, &df.rows, (2+2*cycles)*W, 2*cycles, allocs)
	df.ra, df.rb = cv.words(W), cv.words(W)
	df.a, df.b = cv.pair(cycles, W)

	// ra: compare the reset A fixpoint against the declared init values
	// expanded to the trace's active lanes.
	all := tr.all
	for s := 0; s < n; s++ {
		i1, i0 := uint64(0), all
		if initW[s>>6]>>uint(s&63)&1 == 1 {
			i1, i0 = all, 0
		}
		if tr.resetA1[s] != i1 || tr.resetA0[s] != i0 {
			df.ra[s>>6] |= 1 << uint(s&63)
		}
	}
	diffStatesW(n, tr.resetB1, tr.resetB0, tr.resetA1, tr.resetA0, df.rb)
	prev1, prev0 := tr.resetB1, tr.resetB0
	for t := range tr.stateA1 {
		diffStatesW(n, tr.stateA1[t], tr.stateA0[t], prev1, prev0, df.a[t])
		diffStatesW(n, tr.stateB1[t], tr.stateB0[t], tr.stateA1[t], tr.stateA0[t], df.b[t])
		prev1, prev0 = tr.stateB1[t], tr.stateB0[t]
	}
}
