// Package core implements the paper's primary contribution: the
// synchronous abstraction of an asynchronous circuit as a Confluent
// Stable State Graph (CSSG, §4).
//
// The circuit in test mode is the TCSG: from a stable state the tester
// may change any subset of primary inputs (relation R_I), after which
// gates fire one at a time under the unbounded gate-delay model
// (relation R_δ, stable states self-looping).  With a test cycle of at
// most k transitions, the k-step test cycle relation TCR_k holds between
// a stable state s and every state reachable in exactly k transitions
// (stuttering on stable states) after applying one input pattern.  The
// CSSG_k keeps only the pairs where that set is a single stable state:
// input vectors that cause neither non-confluence nor oscillation nor
// over-long settling.  The result is a deterministic synchronous FSM on
// which standard ATPG techniques are safe.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// EdgeClass classifies the outcome of applying one input pattern to one
// stable state.
type EdgeClass uint8

// Outcome classes for a (stable state, input pattern) pair.
const (
	Valid        EdgeClass = iota // unique stable state after exactly k transitions
	NonConfluent                  // ≥2 reachable stable states (critical race)
	Unsettled                     // an unstable state is reachable at depth k (oscillation or too slow)
	Truncated                     // settling-graph cap hit; conservatively invalid
)

// String names the class.
func (e EdgeClass) String() string {
	switch e {
	case Valid:
		return "valid"
	case NonConfluent:
		return "non-confluent"
	case Unsettled:
		return "unsettled"
	case Truncated:
		return "truncated"
	}
	return fmt.Sprintf("EdgeClass(%d)", uint8(e))
}

// Options tunes CSSG construction.
type Options struct {
	// K is the test-cycle length in gate transitions (§4.1: k = ⌊t/α⌋).
	// Zero selects the default 4·NumSignals, generous for the bundled
	// controllers.
	K int
	// MaxStatesPerPattern caps each settling-graph exploration; hitting
	// the cap classifies the pattern Truncated (conservatively invalid).
	// Zero selects 65536.
	MaxStatesPerPattern int
	// MaxStableStates caps the total number of CSSG nodes. Zero selects
	// 65536.
	MaxStableStates int
	// DisablePOR turns off the partial-order reduction for
	// observation-only gates.  The CSSG is identical either way (a
	// property the tests verify); the full graph is needed only for
	// hazard diagnostics, which must see filtered glitches.
	DisablePOR bool
}

func (o Options) withDefaults(c *netlist.Circuit) Options {
	if o.K == 0 {
		o.K = 4 * c.NumSignals()
	}
	if o.MaxStatesPerPattern == 0 {
		o.MaxStatesPerPattern = 65536
	}
	if o.MaxStableStates == 0 {
		o.MaxStableStates = 65536
	}
	return o
}

// Edge is a valid CSSG transition: applying Pattern to the source node
// always settles in node To within k transitions.
type Edge struct {
	Pattern uint64 // new primary-input rail values (bit i = input i)
	To      int    // destination node id
}

// Stats aggregates construction statistics.
type Stats struct {
	NumStates    int // CSSG nodes (reachable stable states)
	NumEdges     int // valid vectors
	NonConfluent int // invalid (state, pattern) pairs by class
	Unsettled    int
	Truncated    int
	// MaxSettleDepth is the largest transition count |σ| needed by any
	// valid vector; τ = α·MaxSettleDepth bounds the test cycle (§4.1).
	MaxSettleDepth int
	// SettlingStates is the total number of states visited across all
	// settling-graph explorations (TCSG size proxy).
	SettlingStates int
}

// CSSG is the Confluent Stable State Graph: a deterministic synchronous
// FSM abstraction of the asynchronous circuit in test mode.
type CSSG struct {
	C     *netlist.Circuit
	K     int
	Init  int      // node id of the reset state
	Nodes []uint64 // packed stable states, by node id
	Edges [][]Edge // valid outgoing edges per node, sorted by pattern
	Stats Stats
	index map[uint64]int
}

// VectorAnalysis is the detailed outcome of one (stable state, pattern)
// exploration; see AnalyzeVector.
type VectorAnalysis struct {
	Class       EdgeClass
	StableSuccs []uint64 // distinct stable states in TCR_k (sorted)
	UnstableAtK bool     // an unstable state is reachable at depth exactly k
	GraphStates int      // settling-graph size
	SettleDepth int      // depth at which the reach set reached fixpoint
}

// CycleResult is the exact outcome of one synchronous test cycle from an
// arbitrary start state: the set of states the circuit can occupy after
// exactly k transitions (with stuttering on stable states), under every
// possible delay assignment.
type CycleResult struct {
	ReachK      []uint64 // all states in TCR_k's image (sorted)
	StableSuccs []uint64 // the stable ones among them (sorted)
	UnstableAtK bool
	Truncated   bool
	GraphStates int
	SettleDepth int
}

// Explore computes CycleResult for the given start state (input rails
// already set).  This is the §3.2 state-space analysis; AnalyzeVector
// wraps it for stable-state+pattern pairs, and the ATPG uses it directly
// to track the exact state set of a faulty circuit.
func Explore(c *netlist.Circuit, start uint64, opts Options) CycleResult {
	opts = opts.withDefaults(c)
	x := getScratch()
	defer putScratch(x)
	return x.result(x.explore(c, start, opts, nil))
}

// maxRecordedFanin is the widest gate whose assignments a record can
// hold: its fanin values and its output index one bit of a uint64.
const maxRecordedFanin = 5

// ExploreRecorded is Explore that also returns a record of the states
// the settling graph holds: for each gate gi, rec[gi] has bit a set
// when some state the exploration visited gives gi the assignment a,
// which holds the value of fanin j at bit j and gi's own output at bit
// len(Fanin).  A gate with more than five fanins records every bit,
// which reads as "unknown".  The exact fault machine (internal/atpg)
// reads the record, against ExcitationDiff, to tell whether a fault at
// one gate could change the exploration at all.
func ExploreRecorded(c *netlist.Circuit, start uint64, opts Options) (cr CycleResult, rec []uint64) {
	opts = opts.withDefaults(c)
	rec = make([]uint64, c.NumGates())
	x := getScratch()
	defer putScratch(x)
	return x.result(x.explore(c, start, opts, rec)), rec
}

// assignment returns gate gi's assignment in state as its bit of a
// record word (see ExploreRecorded).
func assignment(c *netlist.Circuit, gi int, state uint64) uint64 {
	g := &c.Gates[gi]
	n := len(g.Fanin)
	if n > maxRecordedFanin {
		return ^uint64(0)
	}
	a := uint(state>>uint(g.Out)&1) << uint(n)
	for j, f := range g.Fanin {
		a |= uint(state>>uint(f)&1) << uint(j)
	}
	return 1 << a
}

// ExcitationDiff returns, as record bits (see ExploreRecorded), the
// assignments under which gate gi is excited in exactly one of c and
// fc, two circuits with the same signals and fanin lists.  Each is
// evaluated on a state that gives the gate's fanins and output its
// values.  An assignment no state presents (a signal read twice, with
// two values) is evaluated as some other one, which is harmless: no
// record ever holds it.  ok is false for a gate whose record reads
// "unknown".
func ExcitationDiff(c, fc *netlist.Circuit, gi int) (diff uint64, ok bool) {
	g := &c.Gates[gi]
	n := len(g.Fanin)
	if n > maxRecordedFanin {
		return 0, false
	}
	for a := range 2 << uint(n) {
		s := uint64(a>>n&1) << uint(g.Out)
		for j, f := range g.Fanin {
			s |= uint64(a>>j&1) << uint(f)
		}
		if c.Excited(gi, s) != fc.Excited(gi, s) {
			diff |= 1 << uint(a)
		}
	}
	return diff, true
}

// AnalyzeVector explores all gate-firing interleavings after applying
// pattern to the stable state, and classifies the pair exactly per the
// TCR_k/CSSG_k definitions.  The exploration builds the settling graph
// (stopping at stable states) and runs an exact depth-indexed
// reachability DP with stable-state stuttering.
func AnalyzeVector(c *netlist.Circuit, stable uint64, pattern uint64, opts Options) VectorAnalysis {
	opts = opts.withDefaults(c)
	x := getScratch()
	defer putScratch(x)
	cy := x.explore(c, c.WithInputBits(stable, pattern), opts, nil)
	res := VectorAnalysis{
		Class:       cy.class(),
		UnstableAtK: cy.stable < cy.reach,
		GraphStates: cy.states,
		SettleDepth: cy.depth,
	}
	if cy.stable > 0 {
		res.StableSuccs = x.appendReach(make([]uint64, 0, cy.stable), true)
	}
	return res
}

// cycle is what explore returns: the settling graph's size and, unless
// the exploration was truncated, the depth the DP reached its fixpoint
// at and how many states reach[k] holds, and how many of those are
// stable.  reach[k] itself stays in the scratch (see appendReach).
type cycle struct {
	truncated     bool
	states, depth int
	reach, stable int
}

// class classifies the cycle per the CSSG_k definition.
func (cy cycle) class() EdgeClass {
	switch {
	case cy.truncated:
		return Truncated
	case cy.stable > 1:
		return NonConfluent
	case cy.stable < cy.reach || cy.stable == 0:
		return Unsettled
	}
	return Valid
}

// result returns the cycle explore just ran as a CycleResult.
func (x *exploreScratch) result(cy cycle) CycleResult {
	if cy.truncated {
		return CycleResult{Truncated: true, GraphStates: cy.states}
	}
	res := CycleResult{
		ReachK:      x.appendReach(make([]uint64, 0, cy.reach), false),
		UnstableAtK: cy.stable < cy.reach,
		GraphStates: cy.states,
		SettleDepth: cy.depth,
	}
	if cy.stable > 0 {
		res.StableSuccs = x.appendReach(make([]uint64, 0, cy.stable), true)
	}
	return res
}

// appendReach appends to dst, in ascending order, the states of the
// reach[k] that explore left in the scratch: every one, or only the
// stable ones.  Ids are not in state order, hence the sort.
func (x *exploreScratch) appendReach(dst []uint64, stableOnly bool) []uint64 {
	n := len(dst)
	for w, word := range x.cur {
		if stableOnly {
			word &= x.stable[w]
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, x.states[w<<6|bits.TrailingZeros64(word)])
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// succBudget is how many successor entries an exploration stores for
// its depth DP to read.  Past it the DP re-derives a state's successors
// from its excited-gate mask through the state index, so the largest
// explorations hold no successor lists of their own size (a complete
// 47,430-state exploration of hf/trimos-send has 255,520 successors)
// while the small and medium ones that most calls are keep reading
// stored lists.
const succBudget = 1 << 16

// explore builds the settling graph of one test cycle from start and
// runs the depth DP over it.
//
// The graph is discovered breadth-first, and ids are handed out in
// discovery order, so the BFS is simply a scan over the ids.  Each
// state's successors are produced in ascending gate order (under POR:
// the lowest-indexed excited observation-only gate alone), which fixes
// the id of every state and keeps the result independent of how the
// graph is stored.
//
// Each discovered state carries its excited-gate set as one mask word
// (gate gi at bit gi; the explicit engine caps circuits at
// netlist.WordBits signals, so every gate fits).  Only the start state
// is evaluated gate by gate.  Firing gate g flips out(g) and nothing
// else, and a gate's excitation is a function of its own output and its
// fanins, so the successor's mask is the parent's with only g and the
// gates reading out(g) re-evaluated; a C gate's self edge and the one
// faults.Apply gives a transition-faulted gate are covered because g
// itself is always re-evaluated.  A state's mask is zero exactly when
// it is stable.
//
// The BFS stores the successor lists of the states it scans first, as
// long as they fit the scratch's budget (succBudget); the DP reads
// those and re-derives the rest by the same rule, so both give every
// state the same successors with the same ids.
//
// A non-nil rec (one word per gate, zero on entry) receives the record
// ExploreRecorded returns: every gate's assignment in every state the
// graph holds.  The same argument as for the masks keeps it cheap: the
// start state records every gate, and a new state records only the
// gates re-evaluated for it (aff of the gate fired to reach it), since
// every other gate's fanins and output are its parent's.  A truncated
// exploration records the states found before the cap.
func (x *exploreScratch) explore(c *netlist.Circuit, start uint64, opts Options, rec []uint64) cycle {
	x.prepare(c)
	x.reset()
	m := uint(c.NumInputs())
	por := !opts.DisablePOR

	// Settling graph: ids in BFS order, stable states are sinks.
	all := uint64(1)<<uint(c.NumGates()) - 1
	x.insert(start, excitedAmong(c, start, all))
	if rec != nil {
		record(c, start, all, rec)
	}
	for id := 0; id < len(x.states); id++ {
		st, ex := x.states[id], x.excited[id]
		fire := x.fireable(ex, por)
		// Store id's successors if every earlier state's are stored
		// and they fit the budget.
		keep := len(x.off) == id+1 && len(x.succ)+bits.OnesCount64(fire) <= x.budget
		for ; fire != 0; fire &= fire - 1 {
			gi := bits.TrailingZeros64(fire)
			nx := st ^ 1<<(m+uint(gi))
			nid, ok := x.lookup(nx)
			if !ok {
				if len(x.states) >= opts.MaxStatesPerPattern {
					// No state can be added from here on, so the
					// outcome is settled: the graph holds exactly
					// the states found so far.
					return cycle{truncated: true, states: len(x.states)}
				}
				nid = x.insert(nx, ex&^x.aff[gi]|excitedAmong(c, nx, x.aff[gi]))
				if rec != nil {
					record(c, nx, x.aff[gi], rec)
				}
			}
			if keep {
				x.succ = append(x.succ, nid)
			}
		}
		if keep {
			x.off = append(x.off, int32(len(x.succ)))
		}
	}
	cy := cycle{states: len(x.states)}

	// Depth DP: reach[d+1] = post(reach[d]), stable nodes self-loop.
	nw := (len(x.states) + 63) / 64
	x.cur, x.next, x.stable = zeroed(x.cur, nw), zeroed(x.next, nw), zeroed(x.stable, nw)
	for id, ex := range x.excited {
		if ex == 0 {
			x.stable[id>>6] |= 1 << uint(id&63)
		}
	}
	stored := len(x.off) - 1
	cur, next := x.cur, x.next
	cur[0] = 1 // {start}
	depth := 0
	for ; depth < opts.K; depth++ {
		for w, word := range cur {
			next[w] = word & x.stable[w]
		}
		for w, word := range cur {
			for rem := word &^ x.stable[w]; rem != 0; rem &= rem - 1 {
				id := w<<6 | bits.TrailingZeros64(rem)
				if id < stored {
					for _, s := range x.succ[x.off[id]:x.off[id+1]] {
						next[s>>6] |= 1 << uint(s&63)
					}
					continue
				}
				// Re-derive the successors the BFS found; the graph
				// is complete, so each has an id.
				st := x.states[id]
				for fire := x.fireable(x.excited[id], por); fire != 0; fire &= fire - 1 {
					s, _ := x.lookup(st ^ 1<<(m+uint(bits.TrailingZeros64(fire))))
					next[s>>6] |= 1 << uint(s&63)
				}
			}
		}
		same := slices.Equal(cur, next)
		cur, next = next, cur
		if same {
			break
		}
	}
	x.cur, x.next = cur, next
	cy.depth = depth
	for w, word := range cur {
		cy.reach += bits.OnesCount64(word)
		cy.stable += bits.OnesCount64(word & x.stable[w])
	}
	return cy
}

// fireable returns the gates explore fires from a state whose excited
// gates are ex.  Under partial-order reduction (por), if an
// observation-only gate (zero fanout, e.g. a pure output tap) is
// excited, the lowest one fires alone.  Such firings commute with every
// other firing, so the set of reachable stable states and the cycle
// structure are preserved while the interleaving hypercube of
// concurrent taps collapses to a single order.  (Depth counts on the
// reduced graph can be marginally shorter than the true worst case when
// a tap could glitch; the default k is far above either bound.)
func (x *exploreScratch) fireable(ex uint64, por bool) uint64 {
	if obs := ex & x.obs; obs != 0 && por {
		return obs & -obs
	}
	return ex
}

// exploreScratch is the working memory of explore.  Build's workers
// each hold one for a whole Build; every other call takes one from the
// idle list for one exploration.
type exploreScratch struct {
	// Per-circuit masks, rebuilt only when the circuit changes.
	c   *netlist.Circuit
	obs uint64   // the observation-only gates (POR candidates)
	aff []uint64 // per gate g: g plus every gate reading out(g)

	// The settling graph, by state id.  Only the first len(off)-1
	// states have their successors stored: state id's are
	// succ[off[id]:off[id+1]], at most budget entries in all.
	states  []uint64
	excited []uint64 // excited-gate mask; zero for a stable state
	off     []int32
	succ    []int32
	budget  int // succBudget, unless a test lowers it

	// Open-addressing state index with linear probing.  Only the first
	// 1<<(64-shift) slots are in use this call; a slot holds a state id
	// plus one, so that zero marks it empty.
	table []int32
	shift uint

	// Depth-DP reach sets and the stable-state set, one bit per id;
	// after explore, cur is reach[k].
	cur, next, stable []uint64
}

// idle holds the idle scratches, in ascending size, where every
// goroutine can take one.  sync.Pool would keep a returned scratch in
// the returning P's private slot, which no other P takes from, so a
// caller that moved to another P would grow a second large scratch
// while the first sat idle.  The list keeps at most max scratches, the
// largest ones: max is GOMAXPROCS as of the last time getScratch made
// a scratch, which it does only when none is idle, so reading it there
// keeps GOMAXPROCS off the path of every call.  The price is that a
// process keeps up to GOMAXPROCS scratches of the largest sizes it has
// explored, about 2 MB each at the default settling-graph cap.
var idle struct {
	sync.Mutex
	list []*exploreScratch
	max  int
}

// getScratch takes the largest idle scratch, or makes one.
func getScratch() *exploreScratch {
	idle.Lock()
	n := len(idle.list)
	if n == 0 {
		idle.max = runtime.GOMAXPROCS(0)
		idle.Unlock()
		return &exploreScratch{budget: succBudget}
	}
	x := idle.list[n-1]
	idle.list[n-1] = nil
	idle.list = idle.list[:n-1]
	idle.Unlock()
	return x
}

// putScratch returns x to the idle list, dropping the smallest scratch
// if that leaves more than max.
func putScratch(x *exploreScratch) {
	idle.Lock()
	list := append(idle.list, x)
	for i := len(list) - 1; i > 0 && cap(list[i-1].states) > cap(list[i].states); i-- {
		list[i-1], list[i] = list[i], list[i-1]
	}
	if n := len(list); n > idle.max {
		copy(list, list[1:])
		list[n-1] = nil
		list = list[:n-1]
	}
	idle.list = list
	idle.Unlock()
}

// prepare derives c's gate masks unless the scratch already holds them.
// The masks depend only on c's structure, which never changes after
// construction (faults.Apply edits its fresh clone before returning
// it), so the circuit pointer identifies them.
func (x *exploreScratch) prepare(c *netlist.Circuit) {
	if x.c == c {
		return
	}
	x.c = c
	x.obs = 0
	x.aff = zeroed(x.aff, c.NumGates())
	for gi := range c.Gates {
		a := uint64(1) << uint(gi)
		for _, r := range c.Fanouts(c.Gates[gi].Out) {
			a |= 1 << uint(r)
		}
		x.aff[gi] = a
		if c.ObservationOnly(gi) {
			x.obs |= 1 << uint(gi)
		}
	}
}

// minTableBits sizes the index a call starts with (64 slots), so a
// small exploration clears little after a large one grew the table.
const minTableBits = 6

// reset empties the graph and the index for a new exploration.
func (x *exploreScratch) reset() {
	x.states, x.excited, x.succ = x.states[:0], x.excited[:0], x.succ[:0]
	x.off = append(x.off[:0], 0)
	x.shift = 64 - minTableBits
	x.table = zeroed(x.table, 1<<minTableBits)
}

// zeroed returns s resized to n zero elements, reusing its array when
// that is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// excitedAmong returns the gates of set that are excited in state.
func excitedAmong(c *netlist.Circuit, state, set uint64) uint64 {
	var ex uint64
	for ; set != 0; set &= set - 1 {
		gi := bits.TrailingZeros64(set)
		if c.Excited(gi, state) {
			ex |= 1 << uint(gi)
		}
	}
	return ex
}

// record adds the assignment in state of every gate of set to rec.
func record(c *netlist.Circuit, state, set uint64, rec []uint64) {
	for ; set != 0; set &= set - 1 {
		gi := bits.TrailingZeros64(set)
		rec[gi] |= assignment(c, gi, state)
	}
}

// home returns state's first probe position: a multiplicative hash,
// with the high half folded in first so that states differing only in
// high signals still spread over the table.
func (x *exploreScratch) home(state uint64) int {
	return int(((state ^ state>>32) * 0x9e3779b97f4a7c15) >> x.shift)
}

// lookup returns the id of state, if it has one.
func (x *exploreScratch) lookup(state uint64) (int32, bool) {
	mask := len(x.table) - 1
	for h := x.home(state); ; h = (h + 1) & mask {
		id := x.table[h] - 1
		if id < 0 {
			return 0, false
		}
		if x.states[id] == state {
			return id, true
		}
	}
}

// insert gives state (excited gates ex) the next id, growing the index
// to keep it at most half full.
func (x *exploreScratch) insert(state, ex uint64) int32 {
	id := int32(len(x.states))
	x.states = append(x.states, state)
	x.excited = append(x.excited, ex)
	if 2*len(x.states) > len(x.table) {
		x.table = zeroed(x.table, 2*len(x.table))
		x.shift--
		for i, s := range x.states {
			x.place(s, int32(i))
		}
	} else {
		x.place(state, id)
	}
	return id
}

// place stores state's id in its first free probe position.
func (x *exploreScratch) place(state uint64, id int32) {
	mask := len(x.table) - 1
	h := x.home(state)
	for x.table[h] != 0 {
		h = (h + 1) & mask
	}
	x.table[h] = id + 1
}

// buildWindow is how many vectors per worker Build may have handed out
// past the next one it commits.
const buildWindow = 64

// Build constructs the CSSG_k of the circuit from its declared reset
// state, exploring every input pattern (2^m − 1 per stable state).
//
// The (node, pattern) vectors are independent explorations, analysed on
// min(GOMAXPROCS, 2^m − 1) goroutines, the caller among them, each
// holding one scratch for the whole Build.  They are handed out and
// committed in the serial order (node id, then pattern), so node ids,
// edges, Stats and the stable-state-cap error are the same at any
// GOMAXPROCS.  A vector is handed out only once its node exists and
// while fewer than buildWindow per worker are uncommitted, and none
// after the cap error.
func Build(c *netlist.Circuit, opts Options) (*CSSG, error) {
	opts = opts.withDefaults(c)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NumSignals() > netlist.WordBits {
		// The explicit-state abstraction enumerates packed uint64 states;
		// circuits past one word must use the fault-simulation-based
		// direct flow (atpg.RunDirectCtx), which is multi-word throughout.
		return nil, fmt.Errorf("core: circuit %s has %d signals; the explicit-state CSSG supports at most %d — use the direct ATPG flow",
			c.Name, c.NumSignals(), netlist.WordBits)
	}
	init := c.InitState()
	b := &builder{
		c:        c,
		opts:     opts,
		patterns: uint64(1) << uint(c.NumInputs()),
		g: &CSSG{
			C:     c,
			K:     opts.K,
			Init:  0,
			Nodes: []uint64{init},
			Edges: [][]Edge{nil},
			index: map[uint64]int{init: 0},
		},
	}
	b.wake.L = &b.mu
	workers := max(1, min(runtime.GOMAXPROCS(0), int(b.patterns-1)))
	b.window = make([]vector, buildWindow*workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			b.work()
		}()
	}
	b.work()
	wg.Wait()
	if b.err != nil {
		return nil, b.err
	}
	b.g.Stats.NumStates = len(b.g.Nodes)
	return b.g, nil
}

// builder is one Build's shared state; mu guards every field below it.
type builder struct {
	c        *netlist.Circuit
	opts     Options
	patterns uint64 // 2^m

	mu   sync.Mutex
	wake sync.Cond // a vector was committed or the build failed
	g    *CSSG
	err  error

	// The next vector to hand out: pattern of node.
	node    int
	pattern uint64
	// Vectors are numbered in serial order; vector i sits in
	// window[i%len(window)] from being handed out until committed.
	issued, committed int
	window            []vector
}

// vector is one (node, pattern) exploration of Build and, once done,
// its outcome.
type vector struct {
	node     int
	from     uint64 // the node's stable state
	pattern  uint64
	done     bool
	cy       cycle
	stableTo uint64 // the successor of a Valid vector
}

// work analyses vectors on its own scratch until none is left to hand
// out and none is in flight, or the build has failed.
func (b *builder) work() {
	x := getScratch()
	defer putScratch(x)
	var succ []uint64
	b.mu.Lock()
	for {
		i, ok := b.take()
		if !ok {
			if b.err != nil || b.committed == b.issued {
				b.mu.Unlock()
				return
			}
			// The window is full, or a vector in flight may add the
			// next node.
			b.wake.Wait()
			continue
		}
		v := b.window[i%len(b.window)]
		b.mu.Unlock()
		cy := x.explore(b.c, b.c.WithInputBits(v.from, v.pattern), b.opts, nil)
		if cy.class() == Valid {
			succ = x.appendReach(succ[:0], true)
			v.stableTo = succ[0]
		}
		b.mu.Lock()
		v.cy, v.done = cy, true
		b.window[i%len(b.window)] = v
		b.commit()
		b.wake.Broadcast()
	}
}

// take hands out the next vector in serial order, unless the build has
// failed, the window is full or every vector of the nodes found so far
// is out.
func (b *builder) take() (int, bool) {
	if b.err != nil || b.issued-b.committed == len(b.window) {
		return 0, false
	}
	for b.node < len(b.g.Nodes) {
		if b.pattern == b.patterns {
			b.node, b.pattern = b.node+1, 0
			continue
		}
		p, s := b.pattern, b.g.Nodes[b.node]
		b.pattern++
		if p == b.c.InputBits(s) {
			continue
		}
		i := b.issued
		b.issued++
		b.window[i%len(b.window)] = vector{node: b.node, from: s, pattern: p}
		return i, true
	}
	return 0, false
}

// commit adds the done vectors at the head of the window to the graph,
// in serial order, until one is still in flight or the stable-state cap
// is exceeded.
func (b *builder) commit() {
	g := b.g
	for b.err == nil && b.committed < b.issued {
		v := &b.window[b.committed%len(b.window)]
		if !v.done {
			return
		}
		b.committed++
		class := v.cy.class()
		g.Stats.SettlingStates += v.cy.states
		if v.cy.depth > g.Stats.MaxSettleDepth && class == Valid {
			g.Stats.MaxSettleDepth = v.cy.depth
		}
		switch class {
		case Valid:
			tid, ok := g.index[v.stableTo]
			if !ok {
				if len(g.Nodes) >= b.opts.MaxStableStates {
					b.err = fmt.Errorf("core: stable-state cap %d exceeded for %s", b.opts.MaxStableStates, b.c.Name)
					return
				}
				tid = len(g.Nodes)
				g.index[v.stableTo] = tid
				g.Nodes = append(g.Nodes, v.stableTo)
				g.Edges = append(g.Edges, nil)
			}
			g.Edges[v.node] = append(g.Edges[v.node], Edge{Pattern: v.pattern, To: tid})
			g.Stats.NumEdges++
		case NonConfluent:
			g.Stats.NonConfluent++
		case Unsettled:
			g.Stats.Unsettled++
		case Truncated:
			g.Stats.Truncated++
		}
	}
}

// NumNodes returns the number of stable states in the graph.
func (g *CSSG) NumNodes() int { return len(g.Nodes) }

// NodeOf returns the node id of a packed stable state.
func (g *CSSG) NodeOf(state uint64) (int, bool) {
	id, ok := g.index[state]
	return id, ok
}

// Succ returns the destination of the edge labelled pattern out of node
// id, if that vector is valid there.
func (g *CSSG) Succ(id int, pattern uint64) (int, bool) {
	for _, e := range g.Edges[id] {
		if e.Pattern == pattern {
			return e.To, true
		}
	}
	return 0, false
}

// OutputsOf returns the primary-output values of a node.
func (g *CSSG) OutputsOf(id int) uint64 { return g.C.OutputBits(g.Nodes[id]) }

// InputsOf returns the primary-input rail values of a node.
func (g *CSSG) InputsOf(id int) uint64 { return g.C.InputBits(g.Nodes[id]) }

// Walk follows a pattern sequence from a node, returning the node visited
// after each vector.  ok is false if some vector is invalid at the
// reached state (the walk stops there).
func (g *CSSG) Walk(from int, patterns []uint64) (nodes []int, ok bool) {
	cur := from
	for _, p := range patterns {
		nx, valid := g.Succ(cur, p)
		if !valid {
			return nodes, false
		}
		nodes = append(nodes, nx)
		cur = nx
	}
	return nodes, true
}

// StatesWhere returns the node ids whose stable state satisfies pred.
func (g *CSSG) StatesWhere(pred func(state uint64) bool) []int {
	var out []int
	for id, s := range g.Nodes {
		if pred(s) {
			out = append(out, id)
		}
	}
	return out
}

// ShortestPath returns a minimal pattern sequence driving the machine
// from node `from` to any node satisfying accept, using BFS over valid
// edges.  It returns nil, false if unreachable.  An empty sequence is
// returned when `from` itself is accepted.
func (g *CSSG) ShortestPath(from int, accept func(id int) bool) ([]uint64, bool) {
	if accept(from) {
		return []uint64{}, true
	}
	type link struct {
		prev    int
		pattern uint64
	}
	back := make(map[int]link, len(g.Nodes))
	back[from] = link{prev: -1}
	queue := []int{from}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range g.Edges[id] {
			if _, seen := back[e.To]; seen {
				continue
			}
			back[e.To] = link{prev: id, pattern: e.Pattern}
			if accept(e.To) {
				// Reconstruct.
				var rev []uint64
				cur := e.To
				for cur != from {
					l := back[cur]
					rev = append(rev, l.pattern)
					cur = l.prev
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev, true
			}
			queue = append(queue, e.To)
		}
	}
	return nil, false
}

// CycleBound returns τ = α·|σ|max, the §4.1 upper bound on the test
// cycle given the longest gate delay α.
func (g *CSSG) CycleBound(alpha float64) float64 {
	return alpha * float64(g.Stats.MaxSettleDepth)
}

// KForCycle returns k = ⌊t/α⌋, the maximum number of transitions that
// fit in a test cycle of length t when the longest gate delay is α.
func KForCycle(t, alpha float64) int {
	if alpha <= 0 {
		panic("core: non-positive gate delay")
	}
	return int(t / alpha)
}

// Summary renders a one-line statistics summary.
func (g *CSSG) Summary() string {
	return fmt.Sprintf("%s: k=%d states=%d edges=%d invalid(nonconf=%d unsettled=%d trunc=%d) |σ|max=%d",
		g.C.Name, g.K, g.Stats.NumStates, g.Stats.NumEdges,
		g.Stats.NonConfluent, g.Stats.Unsettled, g.Stats.Truncated, g.Stats.MaxSettleDepth)
}
