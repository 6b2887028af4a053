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
	return explore(c, start, opts, nil)
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
	return explore(c, start, opts, rec), rec
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
	cr := explore(c, c.WithInputBits(stable, pattern), opts, nil)
	res := VectorAnalysis{
		StableSuccs: cr.StableSuccs,
		UnstableAtK: cr.UnstableAtK,
		GraphStates: cr.GraphStates,
		SettleDepth: cr.SettleDepth,
	}
	switch {
	case cr.Truncated:
		res.Class = Truncated
	case len(res.StableSuccs) > 1:
		res.Class = NonConfluent
	case res.UnstableAtK || len(res.StableSuccs) == 0:
		res.Class = Unsettled
	default:
		res.Class = Valid
	}
	return res
}

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
// The state index, the masks, the successor lists and the DP bitsets
// live in pooled scratch (see exploreScratch).
//
// A non-nil rec (one word per gate, zero on entry) receives the record
// ExploreRecorded returns: every gate's assignment in every state the
// graph holds.  The same argument as for the masks keeps it cheap: the
// start state records every gate, and a new state records only the
// gates re-evaluated for it (aff of the gate fired to reach it), since
// every other gate's fanins and output are its parent's.  A truncated
// exploration records the states found before the cap.
func explore(c *netlist.Circuit, start uint64, opts Options, rec []uint64) CycleResult {
	x := getScratch()
	defer putScratch(x)
	x.prepare(c)
	x.reset()
	m := uint(c.NumInputs())

	// Settling graph: ids in BFS order, stable states are sinks.
	all := uint64(1)<<uint(c.NumGates()) - 1
	x.insert(start, excitedAmong(c, start, all))
	if rec != nil {
		record(c, start, all, rec)
	}
	for id := 0; id < len(x.states); id++ {
		st, ex := x.states[id], x.excited[id]
		fire := ex
		if obs := ex & x.obs; obs != 0 && !opts.DisablePOR {
			// Partial-order reduction: if an observation-only gate (zero
			// fanout, e.g. a pure output tap) is excited, fire it alone.
			// Such firings commute with every other firing, so the set of
			// reachable stable states and the cycle structure are
			// preserved while the interleaving hypercube of concurrent
			// taps collapses to a single order.  (Depth counts on the
			// reduced graph can be marginally shorter than the true worst
			// case when a tap could glitch; the default k is far above
			// either bound.)
			fire = obs & -obs
		}
		for ; fire != 0; fire &= fire - 1 {
			gi := bits.TrailingZeros64(fire)
			nx := st ^ 1<<(m+uint(gi))
			nid, ok := x.lookup(nx)
			if !ok {
				if len(x.states) >= opts.MaxStatesPerPattern {
					// No state can be added from here on, so the
					// outcome is settled: the graph holds exactly
					// the states found so far.
					return CycleResult{Truncated: true, GraphStates: len(x.states)}
				}
				nid = x.insert(nx, ex&^x.aff[gi]|excitedAmong(c, nx, x.aff[gi]))
				if rec != nil {
					record(c, nx, x.aff[gi], rec)
				}
			}
			x.succ = append(x.succ, nid)
		}
		x.off = append(x.off, int32(len(x.succ)))
	}
	res := CycleResult{GraphStates: len(x.states)}

	// Depth DP: reach[d+1] = post(reach[d]), stable nodes self-loop.
	nw := (len(x.states) + 63) / 64
	x.cur, x.next, x.stable = zeroed(x.cur, nw), zeroed(x.next, nw), zeroed(x.stable, nw)
	for id, ex := range x.excited {
		if ex == 0 {
			x.stable[id>>6] |= 1 << uint(id&63)
		}
	}
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
				for _, s := range x.succ[x.off[id]:x.off[id+1]] {
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
	res.SettleDepth = depth

	// Inspect reach[k].  Ids are not in state order, so sort.
	nk, ns := 0, 0
	for w, word := range cur {
		nk += bits.OnesCount64(word)
		ns += bits.OnesCount64(word & x.stable[w])
	}
	res.ReachK = make([]uint64, 0, nk)
	if ns > 0 {
		res.StableSuccs = make([]uint64, 0, ns)
	}
	for w, word := range cur {
		for rem := word; rem != 0; rem &= rem - 1 {
			id := w<<6 | bits.TrailingZeros64(rem)
			res.ReachK = append(res.ReachK, x.states[id])
			if x.excited[id] == 0 {
				res.StableSuccs = append(res.StableSuccs, x.states[id])
			}
		}
	}
	res.UnstableAtK = ns < nk
	slices.Sort(res.ReachK)
	slices.Sort(res.StableSuccs)
	return res
}

// exploreScratch is the working memory of one explore call, pooled
// because explorations run concurrently (the service builds CSSGs on
// many goroutines at once).
type exploreScratch struct {
	// Per-circuit masks, rebuilt only when the circuit changes.
	c   *netlist.Circuit
	obs uint64   // the observation-only gates (POR candidates)
	aff []uint64 // per gate g: g plus every gate reading out(g)

	// The settling graph, by state id.
	states  []uint64
	excited []uint64 // excited-gate mask; zero for a stable state
	off     []int32  // state id's successors are succ[off[id]:off[id+1]]
	succ    []int32

	// Open-addressing state index with linear probing.  Only the first
	// 1<<(64-shift) slots are in use this call; a slot holds a state id
	// plus one, so that zero marks it empty.
	table []int32
	shift uint

	// Depth-DP reach sets and the stable-state set, one bit per id.
	cur, next, stable []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(exploreScratch) }}

// largest holds the largest idle scratch where every P can take it.
// sync.Pool keeps a returned scratch in the returning P's private slot,
// which no other P takes from.  So once concurrent explorations (the
// exact fault machine's parallel searches) have left a scratch in each
// P's pool, a serial caller that moves to another P would grow a second
// large scratch while the first sat idle; a 65,536-state exploration
// holds about 3.8 MB.  The price is that a process keeps one scratch of
// the largest size it has explored.
var largest struct {
	sync.Mutex
	x *exploreScratch
}

// getScratch takes the largest idle scratch, or one from the pool.
func getScratch() *exploreScratch {
	largest.Lock()
	x := largest.x
	largest.x = nil
	largest.Unlock()
	if x == nil {
		x = scratchPool.Get().(*exploreScratch)
	}
	return x
}

// putScratch returns x: the larger of x and the held scratch stays in
// largest, and the other goes to the pool.
func putScratch(x *exploreScratch) {
	largest.Lock()
	if largest.x == nil || cap(largest.x.states) <= cap(x.states) {
		largest.x, x = x, largest.x
	}
	largest.Unlock()
	if x != nil {
		scratchPool.Put(x)
	}
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

// Build constructs the CSSG_k of the circuit from its declared reset
// state, exploring every input pattern (2^m − 1 per stable state).
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
	g := &CSSG{
		C:     c,
		K:     opts.K,
		Init:  0,
		Nodes: []uint64{init},
		Edges: [][]Edge{nil},
		index: map[uint64]int{init: 0},
	}
	m := c.NumInputs()
	numPatterns := uint64(1) << uint(m)
	for id := 0; id < len(g.Nodes); id++ {
		s := g.Nodes[id]
		cu := c.InputBits(s)
		for p := uint64(0); p < numPatterns; p++ {
			if p == cu {
				continue
			}
			an := AnalyzeVector(c, s, p, opts)
			g.Stats.SettlingStates += an.GraphStates
			if an.SettleDepth > g.Stats.MaxSettleDepth && an.Class == Valid {
				g.Stats.MaxSettleDepth = an.SettleDepth
			}
			switch an.Class {
			case Valid:
				t := an.StableSuccs[0]
				tid, ok := g.index[t]
				if !ok {
					if len(g.Nodes) >= opts.MaxStableStates {
						return nil, fmt.Errorf("core: stable-state cap %d exceeded for %s", opts.MaxStableStates, c.Name)
					}
					tid = len(g.Nodes)
					g.index[t] = tid
					g.Nodes = append(g.Nodes, t)
					g.Edges = append(g.Edges, nil)
				}
				g.Edges[id] = append(g.Edges[id], Edge{Pattern: p, To: tid})
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
	g.Stats.NumStates = len(g.Nodes)
	return g, nil
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
