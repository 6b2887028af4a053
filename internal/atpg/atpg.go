// Package atpg generates synchronous test-pattern sequences for
// asynchronous circuits on top of the CSSG abstraction, following §5 of
// the paper:
//
//   - Random TPG (§5.4): seeded random walks over the CSSG's valid
//     vectors, fault-simulated 64 walks at a time against
//     every remaining fault with the run's bit-parallel simulator
//     (internal/fsim).  Cheap, typically covers ~half the faults.
//   - Three-phase ATPG (§5.1–5.3): fault activation (stable states where
//     the fault site carries the opposite value), state justification
//     (driving the circuit from reset towards activation) and state
//     differentiation (making the corrupted state observable at a
//     primary output).  The implementation runs an exact breadth-first
//     search over the product of the good CSSG and the conservative
//     ternary faulty machine, which realises justification and
//     differentiation together and handles the paper's Figure-3/4
//     subtleties: corruption noticed early yields a shorter test, and a
//     fault is only counted when detection is guaranteed for every delay
//     assignment.  Exhausting the finite product space proves the fault
//     untestable under the model.
//   - Structural proof: before any search, a fault whose faulty gate's
//     fanout cone holds no primary output (faults.Unobservable) is
//     marked untestable; state differentiation could never carry its
//     effect to an output, so neither the walks' screens nor the
//     searches ever see it.
//   - Fault simulation (§5.4): every found test is simulated against all
//     remaining faults, as a one-lane batch on the same simulator, to
//     drop collaterally-covered ones.
//
// The exact machine behind the search and behind every confirmation
// explores the faulty circuit's settling graph for each (faulty state,
// vector).  Within a run it takes the good circuit's graph instead
// wherever the fault provably cannot change it, from one cache per run,
// and the run's independent confirmations and searches use every core;
// both leave every test and verdict bit-identical.
package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
)

// Phase identifies which stage of the flow first covered a fault
// (the paper's "rnd", "3-ph" and "sim" columns).
type Phase uint8

// Detection phases.
const (
	PhaseNone Phase = iota
	PhaseRandom
	PhaseThree
	PhaseSim
)

// String names the phase as in the paper's tables.
func (p Phase) String() string {
	switch p {
	case PhaseRandom:
		return "rnd"
	case PhaseThree:
		return "3-ph"
	case PhaseSim:
		return "sim"
	}
	return "-"
}

// Test is one synchronous test sequence: input vectors applied from the
// reset state, with the expected good-circuit responses per cycle.
type Test struct {
	Patterns []uint64 // primary-input vectors, applied in order
	Expected []uint64 // good-circuit primary outputs after each vector
}

// FaultResult records the outcome for one fault.
type FaultResult struct {
	Fault      faults.Fault
	Detected   bool
	Phase      Phase
	TestIndex  int  // index into Result.Tests (when detected)
	Untestable bool // no guaranteed test exists (search exhausted, or Unobservable)
	Aborted    bool // resource cap hit before a conclusion
	// Unobservable says why an Untestable fault is untestable when the
	// proof is structural: no primary output lies in its gate's fanout
	// cone (faults.Unobservable), so no phase ever searched for it.
	Unobservable bool
}

// Options tunes the ATPG flow.
type Options struct {
	Seed            int64 // random-walk seed (default 1)
	RandomSequences int   // number of random walks (default 256; 0 disables after defaulting—use SkipRandom)
	RandomLength    int   // vectors per walk (default 24)
	SkipRandom      bool  // ablation: skip the random phase entirely
	// SkipFaultSim skips collateral fault dropping after each
	// three-phase test.  The direct flow has no such screen, so there
	// it changes nothing.
	SkipFaultSim bool
	// MaxProductStates caps the differentiation BFS per fault
	// (default 200000); hitting it marks the fault Aborted.
	MaxProductStates int
	// MaxFaultySet caps the exact state set tracked for the faulty
	// circuit (default 1024); exceeding it marks the fault Aborted.
	MaxFaultySet int
}

// Validate reports the first nonsensical numeric option with a
// descriptive error.  The flows themselves never call it (they fall
// back to defaults instead); satpg.Options.Validate and the service
// do, before any work.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"RandomSequences", o.RandomSequences},
		{"RandomLength", o.RandomLength},
	} {
		if f.v < 0 {
			return fmt.Errorf("atpg: %s must be ≥ 0, got %d", f.name, f.v)
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RandomSequences == 0 {
		o.RandomSequences = 256
	}
	if o.RandomLength == 0 {
		o.RandomLength = 24
	}
	if o.MaxProductStates == 0 {
		o.MaxProductStates = 200000
	}
	if o.MaxFaultySet == 0 {
		o.MaxFaultySet = 1024
	}
	return o
}

// Result is the outcome of a full ATPG run.
type Result struct {
	Model      faults.Type
	Total      int
	Covered    int
	ByPhase    map[Phase]int
	Untestable int
	// Unobservable counts the Untestable faults proved so structurally,
	// before any search (FaultResult.Unobservable).
	Unobservable int
	Aborted      int
	Tests        []Test
	PerFault     []FaultResult
	CPU          time.Duration
	// FaultSim aggregates the work counters of the run's bit-parallel
	// fault simulator over the whole run — the random walks and every
	// single-test screen after a three-phase test (patterns, gate
	// evaluations, backing-array allocations) — the raw material of
	// cmd/satpg's -stats line.
	FaultSim fsim.Stats
	// Podem is always zero.  No flow has a PODEM phase; the field stays
	// only because the atpgbench module still reads these counters.
	Podem struct {
		Targeted, Found                int
		Decisions, Backtracks, Settles int64
	}
	// Fallback counts the exhaustive three-phase product searches run
	// on the faults the random walks leave (universe flow only; the
	// direct flow has no such search).
	Fallback int
	// Graph is the CSSG the universe flow ran over (nil for the direct
	// flow): satpg.Run hands it back so callers can derive tester
	// programs and baselines without re-abstracting the circuit.
	Graph *core.CSSG
}

// Coverage returns covered/total (1 for an empty universe).
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Covered) / float64(r.Total)
}

// DetectionsByTest is the per-test detection provenance of the run:
// for each test index, the universe indices of the faults whose
// detection was first credited to that test (the inverse of
// FaultResult.TestIndex).  This is generation-time attribution — which
// test earned its place in the program — not the full detection
// matrix: a compaction pass must rebuild the exact matrix
// (internal/compact) because late tests typically re-detect many
// faults credited to earlier ones.
func (r *Result) DetectionsByTest() [][]int {
	out := make([][]int, len(r.Tests))
	for fi, fr := range r.PerFault {
		if fr.Detected && fr.TestIndex >= 0 {
			out[fr.TestIndex] = append(out[fr.TestIndex], fi)
		}
	}
	return out
}

// Summary renders a one-line summary in the spirit of a table row.
func (r *Result) Summary() string {
	return fmt.Sprintf("tot=%d cov=%d (%.2f%%) rnd=%d 3ph=%d sim=%d untestable=%d (unobservable=%d) aborted=%d fallback=%d tests=%d cpu=%v",
		r.Total, r.Covered, 100*r.Coverage(), r.ByPhase[PhaseRandom],
		r.ByPhase[PhaseThree], r.ByPhase[PhaseSim], r.Untestable, r.Unobservable, r.Aborted, r.Fallback,
		len(r.Tests), r.CPU.Round(time.Millisecond))
}

// RunUniverseCtx executes the full flow (random TPG, then three-phase
// ATPG with fault simulation) over a prebuilt CSSG for an explicit
// fault universe (faults.Universe for one model, faults.SelectUniverse
// for combined stuck-at ∪ transition universes).  model is recorded in
// the Result and names the stuck-at flavour of a mixed list; the
// universe itself decides what is simulated.  Every model — the
// stuck-at pair and the Transition gross gate-delay extension — rides
// the same flow: the bit-parallel simulator injects transition faults
// as directional override masks, so the random phase and collateral
// fault dropping apply to them exactly as to stuck-at faults, with the
// exact set-semantics machine confirming every claimed detection
// either way.
//
// The run keeps one cache of the good circuit's test cycles, which its
// exact machines share (see exactMachine.goodCycle); it lives as long as
// the run.  Each confirmation verifies its candidates on
// min(GOMAXPROCS, n) goroutines, and the fallback searches up to
// GOMAXPROCS faults at once; both commit their results in serial order,
// so the Result does not depend on GOMAXPROCS.
//
// Cancellation is checked at every batch and fallback-fault boundary;
// at a fallback-fault boundary that is once the searches in flight have
// returned.  On cancellation it returns the partial Result accumulated
// so far together with ctx.Err(): every detection already marked is
// final (each was exactly confirmed), and the faults not yet reached
// simply stay undetected.
func RunUniverseCtx(ctx context.Context, g *core.CSSG, model faults.Type, universe []faults.Fault, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	res, remaining, fs, err := newRun(g.C, model, universe, opts)
	if err != nil {
		// Unreachable: faults.Universe never emits the Transition
		// selector.
		panic("atpg: " + err.Error())
	}
	res.Graph = g
	good := newGoodCache(g)

	// confirm re-validates ternary-simulation detections with the exact
	// set-semantics machine.  Ternary detection corresponds to the fair
	// (finite-delay) semantics; the CSSG uses the paper's literal
	// path-based TCR_k, which is strictly more pessimistic on circuits
	// with self-oscillating gates.  Re-validation keeps every reported
	// detection consistent with the pessimistic model (see DESIGN.md §5).
	// The candidates are independent, so they are verified at once and
	// kept in candidate order.
	confirm := func(test Test, cand []int) []int {
		ok := make([]bool, len(cand))
		parallel(len(cand), func(i int) {
			ok[i] = verify(g, universe[cand[i]], test, opts, good)
		})
		out := cand[:0]
		for i, fi := range cand {
			if ok[i] {
				out = append(out, fi)
			}
		}
		return out
	}
	// collateral marks the remaining faults test ti also covers: the
	// simulator screens them (stuck-at and transition faults alike) and
	// the exact machine confirms them.
	collateral := func(ti int) {
		if opts.SkipFaultSim || len(remaining) == 0 {
			return
		}
		test := res.Tests[ti]
		cand, err := screenTest(fs, remaining, test)
		if err != nil {
			panic("atpg: " + err.Error())
		}
		detected := confirm(test, cand)
		remaining = mark(res, remaining, detected, PhaseSim, ti)
		dropAll(fs, detected)
	}

	// Phase 1: random TPG.  Up to 64 walks ride one batch and every
	// remaining fault is evaluated against all of them in one pass,
	// sharded across workers.  NoDrop keeps the full fault × walk matrix so the
	// sequential test-selection replay is observably identical to
	// per-walk simulation (a ternary detection that the exact
	// confirmation rejects stays live for later walks); confirmed
	// faults are dropped manually.
	if !opts.SkipRandom && g.Stats.NumEdges > 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		// max guards a negative RandomSequences, which the pre-batching
		// loop treated as "no walks".
		walks := make([]Test, max(opts.RandomSequences, 0))
		for seq := range walks {
			walks[seq] = randomWalk(g, rng, opts.RandomLength)
		}
		for base := 0; base < len(walks) && len(remaining) > 0 && ctx.Err() == nil; base += fsim.Lanes {
			if remaining, err = screenWalks(fs, res, remaining, walks[base:min(base+fsim.Lanes, len(walks))], confirm); err != nil {
				panic("atpg: " + err.Error())
			}
		}
	}

	// Phase 2+3 targeting order: dominated faults first.  A test
	// generated for a dominated fault tends to detect its structural
	// dominator too, and the collateral fault-simulation pass below
	// confirms and drops it — so dominator classes go to the back of
	// the queue and are usually never targeted directly.  Pure
	// ordering heuristic: every claimed detection is still simulated
	// and exactly confirmed, so coverage soundness is untouched.
	if len(remaining) > 1 && !opts.SkipFaultSim {
		cl := faults.Collapse(g.C, universe)
		domClass := make(map[int]bool)
		for _, j := range cl.DominatorOf {
			if j >= 0 {
				domClass[cl.Rep[j]] = true
			}
		}
		if len(domClass) > 0 {
			front := make([]int, 0, len(remaining))
			var back []int
			for _, fi := range remaining {
				if domClass[cl.Rep[fi]] {
					back = append(back, fi)
				} else {
					front = append(front, fi)
				}
			}
			remaining = append(front, back...)
		}
	}

	// Phase 2+3: three-phase ATPG per remaining fault, with fault
	// simulation of each new test over the rest.  A search is a pure
	// function of the graph, the fault and the options, so when the head
	// of remaining has not been searched yet, it and the faults behind it
	// are searched at once, up to one per core; the results are still
	// committed one fault at a time, in order.  A searched fault that the
	// collateral screen of an earlier commit covers never commits, and
	// its result is dropped.
	type search struct {
		test    Test
		outcome Outcome
	}
	searched := map[int]search{}
	for len(remaining) > 0 {
		if ctx.Err() != nil {
			break
		}
		fi := remaining[0]
		if _, ok := searched[fi]; !ok {
			// Every fault searched so far has committed or been covered:
			// none of remaining is in the map.
			clear(searched)
			batch := remaining[:min(runtime.GOMAXPROCS(0), len(remaining))]
			found := make([]search, len(batch))
			parallel(len(batch), func(i int) {
				found[i].test, found[i].outcome = generateTest(g, universe[batch[i]], opts, good)
			})
			for i, fj := range batch {
				searched[fj] = found[i]
			}
		}
		test, outcome := searched[fi].test, searched[fi].outcome
		fr := &res.PerFault[fi]
		res.Fallback++
		fs.Drop(fi) // every outcome settles fi
		switch outcome {
		case OutcomeFound:
			res.Tests = append(res.Tests, test)
			ti := len(res.Tests) - 1
			fr.Detected = true
			fr.Phase = PhaseThree
			fr.TestIndex = ti
			res.ByPhase[PhaseThree]++
			res.Covered++
			remaining = remaining[1:]
			collateral(ti)
		case OutcomeUntestable:
			fr.Untestable = true
			res.Untestable++
			remaining = remaining[1:]
		case OutcomeAborted:
			fr.Aborted = true
			res.Aborted++
			remaining = remaining[1:]
		}
	}
	res.FaultSim = fs.Stats()
	res.CPU = time.Since(start)
	return res, ctx.Err()
}

// newRun starts a run over universe.  It returns a Result with every
// fault undetected, except that each faults.Unobservable fault is
// already proved Untestable; the indices of the faults left to search,
// in universe order; and the run's one NoDrop simulator, which serves
// the random walks and the collateral screen of every later test.  The
// proved faults are dropped from the simulator here, and every fault
// that later leaves remaining is dropped too, so it only ever
// simulates the faults still in play.
func newRun(c *netlist.Circuit, model faults.Type, universe []faults.Fault, opts Options) (*Result, []int, *fsim.Simulator, error) {
	fs, err := fsim.New(c, universe, fsim.Options{NoDrop: true})
	if err != nil {
		return nil, nil, nil, err
	}
	res := &Result{
		Model:    model,
		Total:    len(universe),
		ByPhase:  map[Phase]int{},
		PerFault: make([]FaultResult, len(universe)),
	}
	remaining := make([]int, 0, len(universe)) // indices into PerFault
	for i, f := range universe {
		fr := FaultResult{Fault: f, TestIndex: -1}
		if faults.Unobservable(c, f) {
			fr.Untestable, fr.Unobservable = true, true
			res.Untestable++
			res.Unobservable++
			fs.Drop(i)
		} else {
			remaining = append(remaining, i)
		}
		res.PerFault[i] = fr
	}
	return res, remaining, fs, nil
}

// mark flags the given fault indices as detected and removes them from
// the remaining list (preserving order).
func mark(res *Result, remaining, detected []int, phase Phase, testIndex int) []int {
	det := map[int]bool{}
	for _, fi := range detected {
		det[fi] = true
		fr := &res.PerFault[fi]
		fr.Detected = true
		fr.Phase = phase
		fr.TestIndex = testIndex
		res.ByPhase[phase]++
		res.Covered++
	}
	out := remaining[:0]
	for _, fi := range remaining {
		if !det[fi] {
			out = append(out, fi)
		}
	}
	return out
}

// randomWalk produces a random test sequence of valid vectors from reset.
func randomWalk(g *core.CSSG, rng *rand.Rand, length int) Test {
	var t Test
	cur := g.Init
	for step := 0; step < length; step++ {
		edges := g.Edges[cur]
		if len(edges) == 0 {
			break
		}
		e := edges[rng.Intn(len(edges))]
		t.Patterns = append(t.Patterns, e.Pattern)
		t.Expected = append(t.Expected, g.OutputsOf(e.To))
		cur = e.To
	}
	return t
}

// screenWalks fault-simulates a chunk of walks as one batch on fs and
// replays its lanes in order: a walk joins the program when it is the
// first to detect some remaining fault — after confirm, when the flow
// has one — and the faults it detects are marked and dropped.
func screenWalks(fs *fsim.Simulator, res *Result, remaining []int, chunk []Test, confirm func(Test, []int) []int) ([]int, error) {
	br, err := simulate(fs, chunk)
	if err != nil {
		return remaining, err
	}
	for l, test := range chunk {
		if len(test.Patterns) == 0 || len(remaining) == 0 {
			continue
		}
		detected := laneHits(br, l, remaining)
		if confirm != nil {
			detected = confirm(test, detected)
		}
		if len(detected) == 0 {
			continue
		}
		res.Tests = append(res.Tests, test)
		remaining = mark(res, remaining, detected, PhaseRandom, len(res.Tests)-1)
		dropAll(fs, detected)
	}
	return remaining, nil
}

// screenTest fault-simulates one test as a one-lane batch on fs and
// returns the faults of remaining whose detection it guarantees.
func screenTest(fs *fsim.Simulator, remaining []int, t Test) ([]int, error) {
	br, err := simulate(fs, []Test{t})
	if err != nil {
		return nil, err
	}
	return laneHits(br, 0, remaining), nil
}

// simulate runs tests as one batch on fs, judging detection against
// their expected responses.
func simulate(fs *fsim.Simulator, tests []Test) (*fsim.BatchResult, error) {
	b := fsim.Batch{Seqs: make([][]uint64, len(tests)), Expected: make([][]uint64, len(tests))}
	for l, t := range tests {
		b.Seqs[l], b.Expected[l] = t.Patterns, t.Expected
	}
	return fs.SimulateBatch(b)
}

// laneHits lists the faults of remaining that lane l detects.
func laneHits(br *fsim.BatchResult, l int, remaining []int) []int {
	var out []int
	for _, fi := range remaining {
		if br.Lanes[fi]>>uint(l)&1 == 1 {
			out = append(out, fi)
		}
	}
	return out
}

// dropAll drops the given faults from fs.
func dropAll(fs *fsim.Simulator, fis []int) {
	for _, fi := range fis {
		fs.Drop(fi)
	}
}

// Outcome classifies GenerateTest results.
type Outcome uint8

// GenerateTest outcomes.
const (
	OutcomeFound Outcome = iota
	OutcomeUntestable
	OutcomeAborted
)

// Activation returns the CSSG nodes whose stable state excites the fault
// (§5.1): the site signal carries the complement of the stuck value.
func Activation(g *core.CSSG, f faults.Fault) []int {
	return g.StatesWhere(func(s uint64) bool { return f.ExcitedIn(g.C, s) })
}

// GenerateTest searches for a guaranteed test for one fault: an exact
// BFS over (good CSSG node, faulty ternary state) product states,
// applying only vectors that are valid for the good circuit.  The search
// realises state justification and state differentiation together;
// detection anywhere along a justification prefix (Figure 3a) naturally
// yields the shorter test.  If the finite product space is exhausted the
// fault is proven untestable under the conservative model.
//
// Called on its own, GenerateTest explores every faulty test cycle
// afresh; only the searches inside RunUniverseCtx share the run's cache
// of good cycles, with identical results.
func GenerateTest(g *core.CSSG, f faults.Fault, opts Options) (Test, Outcome) {
	return generateTest(g, f, opts, nil)
}

// generateTest is GenerateTest with the run's good-cycle cache, which
// may be nil.
func generateTest(g *core.CSSG, f faults.Fault, opts Options, good *goodCache) (Test, Outcome) {
	opts = opts.withDefaults()
	fm := newExactMachine(g, f, opts, good)
	initSet, ok := fm.reset()
	if !ok {
		return Test{}, OutcomeAborted
	}
	entries := []productEntry{{good: g.Init, faulty: initSet, parent: -1}}
	visited := map[string]bool{productKey(g.Init, initSet): true}

	// The reset state itself may already expose the fault (§4: "still
	// some fault could be detected when forcing s1 as reset state").
	if detectsAt(g, g.Init, initSet) {
		return buildTest(g, entries, 0), OutcomeFound
	}

	for head := 0; head < len(entries); head++ {
		cur := entries[head]
		for _, e := range g.Edges[cur.good] {
			nextSet, ok := fm.step(cur.faulty, e.Pattern)
			if !ok {
				return Test{}, OutcomeAborted
			}
			key := productKey(e.To, nextSet)
			if visited[key] {
				continue
			}
			visited[key] = true
			entries = append(entries, productEntry{good: e.To, faulty: nextSet, parent: head, pat: e.Pattern})
			idx := len(entries) - 1
			if detectsAt(g, e.To, nextSet) {
				return buildTest(g, entries, idx), OutcomeFound
			}
			if len(entries) > opts.MaxProductStates {
				return Test{}, OutcomeAborted
			}
		}
	}
	return Test{}, OutcomeUntestable
}

// productEntry is one node of the justification/differentiation search:
// the good machine's CSSG node paired with the exact set of states the
// faulty circuit may occupy, plus backtracking links.
type productEntry struct {
	good   int
	faulty []uint64
	parent int
	pat    uint64
}

// exactMachine tracks the faulty circuit's exact state set across test
// cycles: the fault is materialised into a circuit copy and each cycle
// is analysed with the §3.2 interleaving exploration (core.Explore), so
// non-determinism and oscillation in the faulty circuit are represented
// faithfully rather than approximated with ternary values.
type exactMachine struct {
	g      *core.CSSG
	fc     *netlist.Circuit
	opts   core.Options
	setCap int
	memo   map[[2]uint64][]uint64 // (state, pattern) → reach-at-k
	// good, when non-nil, answers the cycles the fault cannot change
	// (see goodCycle); gate is the faulted gate and diff the assignments
	// under which its excitation differs between the good and the faulty
	// circuit (core.ExcitationDiff).
	good *goodCache
	gate int
	diff uint64
}

func newExactMachine(g *core.CSSG, f faults.Fault, opts Options, good *goodCache) *exactMachine {
	m := &exactMachine{
		g:      g,
		fc:     faults.Apply(g.C, f),
		opts:   core.Options{K: g.K},
		setCap: opts.MaxFaultySet,
		memo:   make(map[[2]uint64][]uint64),
	}
	if good != nil && g.C.ObservationOnly(f.Gate) == m.fc.ObservationOnly(f.Gate) {
		if diff, ok := core.ExcitationDiff(g.C, m.fc, f.Gate); ok {
			m.good, m.gate, m.diff = good, f.Gate, diff
		}
	}
	return m
}

// reset settles the faulty circuit from the declared reset state (which
// the fault may have destabilised).
func (m *exactMachine) reset() ([]uint64, bool) {
	init := m.fc.InitState()
	reach, ok := m.cycle(init, m.fc.InputBits(init))
	if !ok || len(reach) > m.setCap {
		return nil, false
	}
	return reach, true
}

// step applies one test vector to every state in the set and unions the
// exact cycle outcomes.
func (m *exactMachine) step(set []uint64, pattern uint64) ([]uint64, bool) {
	seen := make(map[uint64]bool, len(set))
	var out []uint64
	for _, s := range set {
		key := [2]uint64{s, pattern}
		reach, ok := m.memo[key]
		if !ok {
			if reach, ok = m.cycle(s, pattern); !ok {
				return nil, false
			}
			m.memo[key] = reach
		}
		for _, t := range reach {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
				if len(out) > m.setCap {
					return nil, false
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// cycle explores the faulty circuit's test cycle that applies pattern
// to state s and returns the states it may occupy after k transitions;
// ok is false when the exploration hit its cap.
func (m *exactMachine) cycle(s, pattern uint64) (reach []uint64, ok bool) {
	start := m.fc.WithInputBits(s, pattern)
	if gc, same := m.goodCycle(s, start); same {
		return gc.reach, !gc.truncated
	}
	cr := core.Explore(m.fc, start, m.opts)
	return cr.ReachK, !cr.Truncated
}

// goodCycle returns the good circuit's cycle from start, which leaves
// state s, and whether it is also the faulty circuit's.  It looks only
// when s is a good CSSG node, which bounds the run's cache by the
// graph's nodes and the vectors applied there, and answers from that
// cache.  The answer is exact:
//
//   - faults.Apply rewrites only the faulted gate's table (a transition
//     fault also makes the gate read its own output) and keeps every
//     fanin list, so every other gate is excited identically in both
//     circuits at every state, and the explorations' affected-gate
//     masks (a gate plus the readers of its output) agree;
//   - the partial-order reduction fires an excited observation-only
//     gate alone, so the two explorations choose alike at every state
//     where the faulted gate's excitation agrees, provided that gate is
//     observation-only in both circuits or in neither (newExactMachine
//     reuses nothing otherwise);
//   - so if the faulted gate is also excited identically in every state
//     the good exploration visited — no recorded assignment lies in
//     diff — both breadth-first searches from the same start discover
//     the same states in the same id order with the same successors,
//     stop at the same cap, and the depth DP over that one graph
//     returns the same CycleResult.
//
// A gate wider than a record holds (core.ExcitationDiff) is never
// reused.
func (m *exactMachine) goodCycle(s, start uint64) (goodEntry, bool) {
	if m.good == nil {
		return goodEntry{}, false
	}
	if _, node := m.g.NodeOf(s); !node {
		return goodEntry{}, false
	}
	gc := m.good.get(start)
	return gc, gc.rec[m.gate]&m.diff == 0
}

// goodCache is one run's memory of the good circuit's test cycles,
// shared by all its exact machines: by start state, the cycle under the
// machines' options (its ReachK and Truncated, as they are) and the
// record of the settling graph behind it (core.ExploreRecorded).  An
// entry is filled the first time a machine asks for it, and the run's
// goroutines share the map under a lock.
type goodCache struct {
	c    *netlist.Circuit
	opts core.Options
	mu   sync.Mutex
	m    map[uint64]goodEntry
}

// goodEntry is one cached good cycle: its ReachK, whether it hit the
// exploration cap, and the record of its settling graph.
type goodEntry struct {
	reach     []uint64
	truncated bool
	rec       []uint64
}

func newGoodCache(g *core.CSSG) *goodCache {
	return &goodCache{c: g.C, opts: core.Options{K: g.K}, m: make(map[uint64]goodEntry)}
}

// get returns the good cycle from start, exploring it on a miss.  Two
// goroutines that miss together both explore; the explorations are
// equal, and the first stored stays.
func (gc *goodCache) get(start uint64) goodEntry {
	gc.mu.Lock()
	e, ok := gc.m[start]
	gc.mu.Unlock()
	if ok {
		return e
	}
	cr, rec := core.ExploreRecorded(gc.c, start, gc.opts)
	e = goodEntry{reach: cr.ReachK, truncated: cr.Truncated, rec: rec}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if prev, ok := gc.m[start]; ok {
		return prev
	}
	gc.m[start] = e
	return e
}

// parallel calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines, the caller among them, each taking the next index from
// one atomic cursor.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// detectsAt reports whether detection is guaranteed in this product
// state: every state the faulty circuit may occupy shows primary
// outputs different from the good response (cf. Figures 3b and 4 — if
// even one possible faulty state matches the good outputs, the tester
// cannot conclude, so the sequence must continue).
func detectsAt(g *core.CSSG, goodNode int, faultySet []uint64) bool {
	if len(faultySet) == 0 {
		return false
	}
	goodOut := g.OutputsOf(goodNode)
	for _, s := range faultySet {
		if g.C.OutputBits(s) == goodOut {
			return false
		}
	}
	return true
}

func productKey(good int, faultySet []uint64) string {
	var sb []byte
	sb = append(sb, byte(good), byte(good>>8), byte(good>>16), byte(good>>24))
	for _, s := range faultySet {
		for b := 0; b < 8; b++ {
			sb = append(sb, byte(s>>uint(8*b)))
		}
	}
	return string(sb)
}

// Verify replays a test against one fault with the exact-set machine and
// reports whether detection is guaranteed at some cycle (or at the reset
// state, for an empty test).  Like GenerateTest it shares no cache, so
// it stays an oracle independent of the reuse inside RunUniverseCtx.
func Verify(g *core.CSSG, f faults.Fault, t Test, opts Options) bool {
	return verify(g, f, t, opts, nil)
}

// verify is Verify with the run's good-cycle cache, which may be nil.
func verify(g *core.CSSG, f faults.Fault, t Test, opts Options, good *goodCache) bool {
	return newExactMachine(g, f, opts.withDefaults(), good).detects(t)
}

// detects replays t from the reset state and reports whether detection
// is guaranteed at some cycle.  The machine's memo carries over from one
// call to the next.
func (m *exactMachine) detects(t Test) bool {
	set, ok := m.reset()
	if !ok {
		return false
	}
	if detectsAt(m.g, m.g.Init, set) {
		return true
	}
	for cyc, p := range t.Patterns {
		set, ok = m.step(set, p)
		if !ok {
			return false
		}
		allDiffer := len(set) > 0
		for _, s := range set {
			if m.g.C.OutputBits(s) == t.Expected[cyc] {
				allDiffer = false
				break
			}
		}
		if allDiffer {
			return true
		}
	}
	return false
}

// buildTest reconstructs the pattern sequence leading to entries[idx]
// and fills in the expected good responses per cycle.
func buildTest(g *core.CSSG, entries []productEntry, idx int) Test {
	var rev []uint64
	for cur := idx; entries[cur].parent >= 0; cur = entries[cur].parent {
		rev = append(rev, entries[cur].pat)
	}
	t := Test{
		Patterns: make([]uint64, 0, len(rev)),
		Expected: make([]uint64, 0, len(rev)),
	}
	node := g.Init
	for i := len(rev) - 1; i >= 0; i-- {
		p := rev[i]
		next, ok := g.Succ(node, p)
		if !ok {
			panic("atpg: reconstructed test not walkable")
		}
		t.Patterns = append(t.Patterns, p)
		t.Expected = append(t.Expected, g.OutputsOf(next))
		node = next
	}
	return t
}
