// Package fsim is the repository's bit-parallel fault simulator: the
// pattern-parallel instantiation of the shared lanevec sweep core.  It
// evaluates one fault at a time, injected into every lane by
// lanevec.Engine.Inject, against a whole batch of test sequences (the
// PPSFP — parallel-pattern single-fault propagation — orientation).
// Coverage measurement, compaction and both generation flows run on
// it; a flow screens each newly generated test as a one-lane batch on
// the same Simulator that screened its random walks.  For the
// "many tests × many faults" workload this is the winning shape,
// because it composes with the standard ATPG scaling moves:
//
//   - wide lanes: Options.Lanes selects 64 or 256 test sequences per
//     sweep (one or four machine words per signal vector);
//   - fault collapsing: structurally equivalent faults (faults.Collapse)
//     are simulated once per class and the verdict is fanned back out to
//     every member, so the simulated universe is smaller than the
//     reported one;
//   - fault dropping: a fault is removed from the simulation the moment
//     one lane guarantees its detection, so late faults never pay for
//     patterns that early faults already answered;
//   - sharding: faults are independent once the good trace is computed,
//     so the representative list is partitioned across workers — the
//     shard assignment and the per-worker lane machines are sticky
//     across batches, keeping worker state cache-warm;
//   - good-trace caching: the good machine's response to a sequence set
//     is cached across Simulator instances, so repeated measurements of
//     the same tests skip the redundant good run.
//
// Detection semantics match the rest of the repository: a fault counts
// as detected only when some primary output settles to a definite value
// opposite the definite good response — guaranteed detection under every
// delay assignment, per §5.4 of Roig et al. (DAC'97).
package fsim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"

	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/netlist"
	"repro/internal/sched"
)

// EngineKind selects the settling strategy of the fault machines.
type EngineKind uint8

// Engine kinds.  Both produce bit-identical detected sets (the
// differential tests assert it); they differ only in how much work a
// fault costs.
const (
	// EngineEvent (the default) is the event-driven cone-limited
	// engine: each fault re-simulates only the gates in its fanout
	// cone whose inputs actually changed relative to the cached good
	// trace, with per-lane activity masks deciding what "changed"
	// means.  Signals outside the cone provably track the good machine
	// and are served from the trace.
	EngineEvent EngineKind = iota
	// EngineSweep is the full-Jacobi-sweep engine: every fault settles
	// the whole circuit every cycle.  It is kept as the differential
	// oracle for the event engine and for measuring the win.
	EngineSweep
)

// String names the engine kind as the CLI spells it.
func (k EngineKind) String() string {
	if k == EngineSweep {
		return "sweep"
	}
	return "event"
}

// Options tunes the engine.
type Options struct {
	// Workers is the number of goroutines the fault list is sharded
	// across (0: GOMAXPROCS).  The shard assignment is fixed at New and
	// each worker keeps its lane machine across batches.
	Workers int
	// Engine selects event-driven cone-limited settling (default) or
	// the full-sweep oracle.  Detected sets are identical either way;
	// only the differential tests and microbenchmarks pick the sweep.
	Engine EngineKind
	// Lanes is the number of test sequences simulated per sweep: 64
	// (default) or 256.  Wider lanes trade more work per gate
	// evaluation for fewer sweeps per batch; the detected sets are
	// identical across widths.
	Lanes int
	// NoDrop keeps simulating a fault against the full batch after its
	// first detection, so BatchResult.Lanes carries the complete
	// fault × lane detection matrix (diagnostics and the ATPG random
	// phase need it; coverage measurement should leave it off).
	NoDrop bool
	// CheckReset also compares outputs right after reset settling,
	// before any pattern — the tester observes the reset response too.
	CheckReset bool
	// NoCollapse simulates every fault of the universe individually
	// instead of one representative per structural equivalence class.
	// The results are identical either way (the differential tests
	// assert it); the flag exists for those tests and for measuring
	// the collapsing win.
	NoCollapse bool

	// ShardIndex/ShardCount select a static 1-of-N partition of the
	// representative fault classes for multi-process sharding: with
	// ShardCount > 1, this Simulator owns exactly the classes at
	// positions i ≡ ShardIndex (mod ShardCount) of the deterministic
	// representative order, and never simulates the rest (their
	// verdicts stay empty; Owns reports the split).  Because faults
	// are independent once the good trace is known, the per-fault
	// verdicts of the owned slice are bit-identical to a single-process
	// run over the whole universe — N shards' reports merge by
	// disjoint union.  ShardCount ≤ 1 means unsharded.
	ShardIndex int
	ShardCount int

	// eagerSeed forces the event engine's pre-overhaul eager cone
	// seeding: full state load per fault, every cone gate enqueued per
	// phase, every out-of-cone diff swapped, all outputs compared.
	// Unexported — it exists so the lazy/eager differential suite can
	// pin the lazily-seeded path bit-for-bit to the exhaustive one.
	eagerSeed bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) lanes() int {
	if o.Lanes == 0 {
		return DefaultLanes
	}
	return o.Lanes
}

// LaneMask is a bitset over batch lanes: lane l lives at bit l&63 of
// word l>>6.  A nil mask is empty.
type LaneMask []uint64

// Has reports whether lane l is set.
func (m LaneMask) Has(l int) bool {
	w := l >> 6
	return w < len(m) && m[w]>>uint(l&63)&1 == 1
}

// Any reports whether any lane is set.
func (m LaneMask) Any() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set lanes.
func (m LaneMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// ContainedIn reports whether every set lane of m is also set in o
// (lengths may differ; missing words are zero).
func (m LaneMask) ContainedIn(o LaneMask) bool {
	for i, w := range m {
		if i < len(o) {
			w &^= o[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal compares two masks, zero-extending the shorter one (nil equals
// the all-zero mask of any width).
func (m LaneMask) Equal(o LaneMask) bool {
	n := len(m)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(m) {
			a = m[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Detection records the first guaranteed detection of one fault.
type Detection struct {
	Fault int // index into the simulator's fault universe
	Lane  int // batch lane (sequence) that detects it
	Cycle int // cycle of first detection; -1 means at reset
}

// BatchResult is the outcome of simulating one batch.
type BatchResult struct {
	// Lanes maps each fault index to the mask of lanes that guarantee
	// its detection.  With dropping enabled only the lanes seen up to
	// the dropping cycle are set; with NoDrop it is the full matrix.
	// Faults dropped in earlier batches stay empty (nil).
	Lanes []LaneMask
	// Detections lists the faults detected in this batch, ascending by
	// fault index, with their first detecting lane and cycle.
	Detections []Detection
}

// laneRunner is the width-erased handle to the generic engine; the
// Simulator picks the instantiation once at New, so the per-batch and
// per-fault hot paths stay monomorphic.
type laneRunner interface {
	run(b *Batch) (*BatchResult, error)
	addStats(st *Stats)
}

// Stats reports the cumulative work counters of a Simulator.
type Stats struct {
	// Patterns is the number of test patterns applied so far, summed
	// over lanes (each sequence cycle of each lane counts once).
	Patterns int64
	// GateEvals is the number of gate evaluations performed across the
	// good machine and every fault machine — the work the event-driven
	// engine exists to shrink.  Good runs served from the shared trace
	// cache cost nothing, as they should.
	GateEvals int64
	// Allocs is the number of backing-array allocations the engine
	// performed serving this Simulator's batches: packed-batch arenas,
	// machine scratch growth, and the good traces and diff bitsets
	// this Simulator recorded (cache hits cost nothing).  With the
	// pooled buffers it settles to zero across same-shaped batches —
	// the regression canary for the hot path's allocation discipline.
	Allocs int64
	// CacheHits and CacheMisses count this Simulator's good-trace
	// cache lookups (a cached trace missing the full-state fixpoints
	// an event engine needs counts as a miss).  The cache-wide
	// counters, eviction count included, live in TraceCacheStats.
	CacheHits   int64
	CacheMisses int64
}

// EvalsPerPattern returns GateEvals/Patterns (0 when nothing ran).
func (st Stats) EvalsPerPattern() float64 {
	if st.Patterns == 0 {
		return 0
	}
	return float64(st.GateEvals) / float64(st.Patterns)
}

// AllocsPerPattern returns Allocs/Patterns (0 when nothing ran).
func (st Stats) AllocsPerPattern() float64 {
	if st.Patterns == 0 {
		return 0
	}
	return float64(st.Allocs) / float64(st.Patterns)
}

// CacheHitRate returns CacheHits/(CacheHits+CacheMisses), or 0 before
// any good-trace lookup.
func (st Stats) CacheHitRate() float64 {
	if st.CacheHits+st.CacheMisses == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
}

// Line renders the counters as the one-line work summary cmd/satpg
// prints under -stats.
func (st Stats) Line() string {
	return fmt.Sprintf("patterns=%d gate-evals/pattern=%.1f allocs/pattern=%.4f cache hits=%d misses=%d (%.0f%% hit rate)",
		st.Patterns, st.EvalsPerPattern(), st.AllocsPerPattern(),
		st.CacheHits, st.CacheMisses, 100*st.CacheHitRate())
}

// Simulator carries a fault universe across batches, dropping detected
// faults as it goes.  It simulates one representative per structural
// equivalence class (faults.Collapse) and fans each verdict out to the
// class members, unless Options.NoCollapse.
type Simulator struct {
	c        *netlist.Circuit
	universe []faults.Fault
	opts     Options
	lanes    int

	// members[r] lists the universe indices equivalent to representative
	// r (including r itself); nil for non-representatives.
	members [][]int
	// units holds the representative indices cut into work units sized
	// by cone-weight estimates (sched.Partition), fixed at New; each
	// batch filters them down to live classes and runs them on the
	// work-stealing pool.  weights[fi] is the per-class cost estimate,
	// kept for re-weighting live units.
	units    []sched.Unit
	weights  []int64
	nworkers int
	// owned marks the universe indices this Simulator's shard simulates
	// (nil: unsharded, everything owned).
	owned []bool

	runner laneRunner

	dropped  []bool // no longer simulated (detected, unless NoDrop)
	detected []bool // ever detected
	ndet     int

	patterns int64 // applied patterns, summed over lanes
}

// New builds a simulator for the fault universe.  Stuck-at faults
// (output and input) and the gross gate-delay transition faults
// (SlowRise/SlowFall) are all supported: a stuck-at is injected as a
// pin/output override mask and a transition fault as a directional
// override — no materialised circuit copy is ever built, so the full
// TransitionUniverse rides the same batched, collapsed, cone-limited
// machinery as the stuck-at models (faults.Apply plus serial
// simulation remains the differential oracle, see the transition
// differential tests).  Only the Transition model *selector* is
// rejected: it names a universe, not a concrete fault.
func New(c *netlist.Circuit, universe []faults.Fault, opts Options) (*Simulator, error) {
	for i, f := range universe {
		switch f.Type {
		case faults.OutputSA, faults.InputSA, faults.SlowRise, faults.SlowFall:
		default:
			return nil, fmt.Errorf("fsim: fault %d (%s) is not a concrete stuck-at or transition fault", i, f.Describe(c))
		}
	}
	if opts.ShardCount > 1 && (opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount) {
		return nil, fmt.Errorf("fsim: shard index %d out of range for %d shards", opts.ShardIndex, opts.ShardCount)
	}
	lanes := opts.lanes()
	s := &Simulator{
		c: c, universe: universe, opts: opts, lanes: lanes,
		dropped:  make([]bool, len(universe)),
		detected: make([]bool, len(universe)),
	}
	var reps []int
	if opts.NoCollapse {
		s.members = make([][]int, len(universe))
		reps = make([]int, len(universe))
		for i := range universe {
			s.members[i] = []int{i}
			reps[i] = i
		}
	} else {
		cl := faults.Collapse(c, universe)
		s.members = cl.Members()
		reps = cl.Representatives()
	}
	if opts.ShardCount > 1 {
		// Keep every ShardCount-th class of the deterministic
		// representative order; the excluded classes are dropped up
		// front so no batch ever simulates them.  The round-robin cut
		// (rather than a contiguous one) spreads the wide-cone classes —
		// which cluster by gate index — evenly across shards.
		s.owned = make([]bool, len(universe))
		kept := reps[:0:0]
		for i, fi := range reps {
			if i%opts.ShardCount == opts.ShardIndex {
				kept = append(kept, fi)
				for _, mi := range s.members[fi] {
					s.owned[mi] = true
				}
			} else {
				for _, mi := range s.members[fi] {
					s.dropped[mi] = true
				}
			}
		}
		reps = kept
	}
	nw := opts.workers()
	if nw > len(reps) {
		nw = len(reps)
	}
	if nw < 1 {
		nw = 1
	}
	s.nworkers = nw

	// Cut the representative classes into work units sized by a cost
	// estimate.  For the event engine a class's settling cost scales
	// with its fanout cone (the only gates it re-evaluates), so the
	// cone population is the weight; the sweep engine settles the whole
	// circuit per class, so every class weighs the same.  The units are
	// re-balanced at run time by the work-stealing pool, so the
	// estimate only needs to be proportional, not exact.
	s.weights = make([]int64, len(universe))
	if opts.Engine == EngineEvent {
		topo := c.Topology()
		for _, fi := range reps {
			cone := topo.ConeOf(c.Gates[universe[fi].Gate].Out)
			w := int64(0)
			for _, cw := range cone {
				w += int64(bits.OnesCount64(cw))
			}
			s.weights[fi] = w
		}
	} else {
		for _, fi := range reps {
			s.weights[fi] = 1
		}
	}
	s.units = sched.Partition(reps, func(i int) int64 { return s.weights[reps[i]] }, nw*sched.UnitsPerWorker)
	switch lanes {
	case lanevec.Lanes1:
		s.runner = newEngine[lanevec.V1](s)
	case lanevec.Lanes4:
		s.runner = newEngine[lanevec.V4](s)
	default:
		return nil, fmt.Errorf("fsim: unsupported lane width %d (want %d or %d)",
			lanes, lanevec.Lanes1, lanevec.Lanes4)
	}
	return s, nil
}

// Stats returns the cumulative work counters.
func (s *Simulator) Stats() Stats {
	st := Stats{Patterns: s.patterns}
	s.runner.addStats(&st)
	return st
}

// Lanes returns the configured lane width (sequences per batch).
func (s *Simulator) Lanes() int { return s.lanes }

// NumClasses returns the number of simulated equivalence classes (the
// universe size when collapsing is off).
func (s *Simulator) NumClasses() int {
	n := 0
	for _, m := range s.members {
		if m != nil {
			n++
		}
	}
	return n
}

// Detected reports whether fault fi has been detected by any batch.
func (s *Simulator) Detected(fi int) bool { return s.detected[fi] }

// Owns reports whether this Simulator's shard simulates fault fi.
// Unsharded (ShardCount ≤ 1) Simulators own the whole universe.
func (s *Simulator) Owns(fi int) bool {
	return s.owned == nil || s.owned[fi]
}

// Coverage returns detected/total (1 for an empty universe).
func (s *Simulator) Coverage() float64 {
	if len(s.universe) == 0 {
		return 1
	}
	return float64(s.ndet) / float64(len(s.universe))
}

// Remaining returns the indices of faults still being simulated.
func (s *Simulator) Remaining() []int {
	var out []int
	for fi := range s.universe {
		if !s.dropped[fi] {
			out = append(out, fi)
		}
	}
	return out
}

// Drop removes a fault from future batches regardless of NoDrop (the
// ATPG drops faults only after its exact-machine confirmation succeeds).
// A class representative keeps running while any of its members is
// live; its verdicts only fan out to live members.
func (s *Simulator) Drop(fi int) { s.dropped[fi] = true }

// repLive reports whether any member of representative fi's class is
// still simulated.
func (s *Simulator) repLive(fi int) bool {
	for _, mi := range s.members[fi] {
		if !s.dropped[mi] {
			return true
		}
	}
	return false
}

// SimulateBatch evaluates every remaining fault class against the
// batch, sharded across the configured workers, and returns the
// per-fault detection masks.  Detected faults are dropped from future
// batches unless NoDrop is set.
func (s *Simulator) SimulateBatch(b Batch) (*BatchResult, error) {
	res, err := s.runner.run(&b)
	if err != nil {
		return nil, err
	}
	for _, seq := range b.Seqs {
		s.patterns += int64(len(seq))
	}
	for _, d := range res.Detections {
		if !s.opts.NoDrop {
			s.dropped[d.Fault] = true
		}
		if !s.detected[d.Fault] {
			s.detected[d.Fault] = true
			s.ndet++
		}
	}
	return res, nil
}

// SimulateSequences chunks a sequence set into lane-width batches and
// simulates each, invoking record with the base sequence index of every
// batch (lane l of that batch is sequence base+l).  An empty set still
// simulates one empty-lane batch, so reset-observable faults are
// measured when CheckReset is on.  expected and resetExpected may be
// nil; when present they must parallel seqs.
func (s *Simulator) SimulateSequences(seqs, expected [][]uint64, resetExpected []uint64, record func(base int, br *BatchResult)) error {
	return s.SimulateSequencesCtx(context.Background(), seqs, expected, resetExpected, record)
}

// SimulateSequencesCtx is SimulateSequences with cooperative
// cancellation: the context is checked between lane-width batches, so
// a cancelled run returns ctx.Err() within one batch of settling and
// every batch already handed to record remains valid.
func (s *Simulator) SimulateSequencesCtx(ctx context.Context, seqs, expected [][]uint64, resetExpected []uint64, record func(base int, br *BatchResult)) error {
	if len(seqs) == 0 {
		br, err := s.SimulateBatch(Batch{Seqs: [][]uint64{nil}})
		if err != nil {
			return err
		}
		record(0, br)
		return nil
	}
	for base := 0; base < len(seqs); base += s.lanes {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+s.lanes, len(seqs))
		b := Batch{Seqs: seqs[base:end]}
		if expected != nil {
			b.Expected = expected[base:end]
		}
		if resetExpected != nil {
			b.ResetExpected = resetExpected[base:end]
		}
		br, err := s.SimulateBatch(b)
		if err != nil {
			return err
		}
		record(base, br)
	}
	return nil
}

// engine is the width-specialised runner: it owns the sticky good
// machine and per-worker machines, so allocations and cache-warm state
// survive across batches.
//
// In event mode (the default) each fault is simulated cone-limited:
// the cone theorem says a fault at gate g can only ever disturb the
// signals in Topology().Cone[g.Out] — every gate outside that cone has
// unmodified function and (by cone closure) reads only out-of-cone
// signals, so by induction over cycles and over each settling phase's
// confluent iteration its value equals the good machine's, lane for
// lane.  A transition fault's cone is the same gate-output cone: the
// directional gate's extra read is its own output, which lies inside
// its own cone, so cone limiting applies to SlowRise/SlowFall
// unchanged.  The fault machines therefore admit only cone gates to their
// event queues and serve everything else from the cached good-state
// trace, which also means DetectVs sees exactly the values the full
// simulation would produce: bit-identical detection, a fraction of the
// gate evaluations.
type engine[V lanevec.Vec[V]] struct {
	s       *Simulator
	mode    EngineKind
	topo    *netlist.Topology // cone index; event mode only
	good    *machine[V]       // built on first use, reused for good runs
	workers []*machine[V]     // sticky per-worker machines
	pk      packedBatch[V]    // pooled packed-batch arenas, reused per run

	allocs                 int64 // engine-side backing-array allocations
	cacheHits, cacheMisses int64 // this Simulator's trace-cache outcomes
}

func newEngine[V lanevec.Vec[V]](s *Simulator) *engine[V] {
	e := &engine[V]{s: s, mode: s.opts.Engine, workers: make([]*machine[V], s.nworkers)}
	if e.mode == EngineEvent {
		e.topo = s.c.Topology()
	}
	return e
}

// addStats folds the engine's work counters into st.
func (e *engine[V]) addStats(st *Stats) {
	st.Allocs += e.allocs
	st.CacheHits += e.cacheHits
	st.CacheMisses += e.cacheMisses
	for _, m := range append([]*machine[V]{e.good}, e.workers...) {
		if m != nil {
			st.GateEvals += m.eng.GateEvals()
			st.Allocs += m.allocs
		}
	}
}

// sufficientTrace reports whether a trace satisfies the requirement
// level of a lookup.
func sufficientTrace[V lanevec.Vec[V]](tr *goodTrace[V], needCycles, needStates bool) bool {
	return (tr.good1 != nil || !needCycles) && (tr.hasStates() || !needStates)
}

// traceFor returns the good machine's trace for the batch, serving it
// from the shared cache when the same sequence set was simulated
// before (by this or any other Simulator), waiting on an in-flight
// computation by any other goroutine (singleflight — N identical
// concurrent queries settle the good circuit once), and
// computing+publishing it on the sticky good machine otherwise.
// needCycles requests the per-cycle output trace on top of the reset
// response; needStates additionally requests the full-state fixpoint
// trace the cone-limited engine consumes.
func (e *engine[V]) traceFor(b *Batch, pk *packedBatch[V], needCycles, needStates bool) *goodTrace[V] {
	var zero V
	key := traceKey{c: e.s.c, width: zero.Size(), hash: hashSeqs(b.Seqs)}
	for {
		if cached := lookupTrace(key, b.Seqs); cached != nil {
			tr := cached.(*goodTrace[V])
			if sufficientTrace(tr, needCycles, needStates) {
				e.cacheHits++
				return tr
			}
		}
		fl, leader := beginTraceFlight(key, b.Seqs, needCycles, needStates)
		if !leader {
			<-fl.done
			// The flight covered our requirements, so its result (also
			// published via storeTrace) serves directly; a nil result
			// means the leader failed — loop and compute ourselves.
			if tr, ok := fl.tr.(*goodTrace[V]); ok && tr != nil {
				e.cacheHits++
				return tr
			}
			continue
		}
		e.cacheMisses++
		tr := e.computeTrace(pk, needCycles, needStates)
		storeTrace(key, b.Seqs, tr)
		finishTraceFlight(fl, tr)
		return tr
	}
}

// computeTrace records the good machine's trace for the packed batch.
func (e *engine[V]) computeTrace(pk *packedBatch[V], needCycles, needStates bool) *goodTrace[V] {
	if e.good == nil {
		e.good = newMachine[V](e.s.c)
	}
	m := e.good
	tr := &goodTrace[V]{}
	if needStates {
		tr.runEvents(m, pk, e.topo)
		// Derive the diff bitsets eagerly so their cost is accounted to
		// the Simulator that recorded the trace (cache hits then find
		// them precomputed).
		e.allocs += tr.diffs(e.s.c).allocs
	} else {
		tr.run(m, pk, needCycles)
	}
	e.allocs += tr.allocs
	return tr
}

// run simulates one batch: pack, fill the response trace, then settle
// every live fault class on the work-stealing pool.
func (e *engine[V]) run(b *Batch) (*BatchResult, error) {
	s := e.s
	pk := &e.pk
	var packAllocs int64
	if err := pack[V](s.c, b, pk, &packAllocs); err != nil {
		return nil, err
	}
	if b.Expected != nil {
		pk.traceFromExpected(s.c, b, &packAllocs)
	}
	if b.ResetExpected != nil {
		pk.traceFromResetExpected(s.c, b, &packAllocs)
	}
	e.allocs += packAllocs
	res := &BatchResult{Lanes: make([]LaneMask, len(s.universe))}
	// Filter each unit down to its live classes, re-summing weights so
	// the pool balances today's survivors, not the seed universe (after
	// a few batches most classes are detected and dropped — the static
	// cut would starve every worker but one).
	var liveUnits []sched.Unit
	for _, u := range s.units {
		var items []int
		var w int64
		for _, fi := range u.Items {
			if s.repLive(fi) {
				items = append(items, fi)
				w += s.weights[fi]
			}
		}
		if len(items) > 0 {
			liveUnits = append(liveUnits, sched.Unit{Items: items, Weight: w})
		}
	}
	if len(liveUnits) == 0 {
		// Nothing left to simulate: skip the good run entirely.
		return res, nil
	}

	// The reset trace is only consulted under CheckReset, so a batch
	// that declares its Expected responses and doesn't check reset
	// needs no good run for the sweep engine; the event engine always
	// needs the good machine's state trace to seed its cones (one good
	// run buys every fault a cone-limited ride, and the trace cache
	// often buys it back entirely).
	needReset := s.opts.CheckReset && b.ResetExpected == nil
	needCycles := pk.good1 == nil
	var tr *goodTrace[V]
	var df *traceDiffs
	if e.mode == EngineEvent {
		tr = e.traceFor(b, pk, true, true)
		df = tr.diffs(s.c)
	} else if needReset || needCycles {
		tr = e.traceFor(b, pk, needCycles, false)
	}
	if tr != nil {
		if pk.reset1 == nil {
			pk.reset1, pk.reset0 = tr.reset1, tr.reset0
		}
		if needCycles {
			pk.good1, pk.good0 = tr.good1, tr.good0
		}
	}

	// A lazily-seeded fault machine maintains only its support signals
	// and compares only its cone outputs — sound as long as detection
	// against pk's responses agrees with the good machine on
	// out-of-cone outputs (where faulty == good by the cone theorem).
	// Declared Expected/ResetExpected responses normally ARE the good
	// responses; if any declared bit definitely contradicts the good
	// trace, an out-of-cone output could detect at that lane for every
	// fault, so the batch falls back to eager full maintenance.
	eager := s.opts.eagerSeed
	if e.mode == EngineEvent && !eager {
		eager = !expectedMatchesGood(b, pk, tr, s.opts.CheckReset)
	}

	// Class members are disjoint, so workers write disjoint res.Lanes
	// entries and no synchronisation is needed beyond the pool's join
	// (the trace and diffs are shared read-only).  A unit is executed
	// entirely by one worker, on that worker's sticky machine — stealing
	// moves units, never splits them.
	found := make([][]Detection, s.nworkers)
	sched.Run(s.nworkers, liveUnits, func(w int, u sched.Unit) {
		found[w] = append(found[w], e.runUnit(w, pk, tr, df, u.Items, res.Lanes, eager)...)
	})
	for _, part := range found {
		res.Detections = append(res.Detections, part...)
	}
	// Stealing makes the execution order nondeterministic; sorting by
	// fault index keeps the result deterministic regardless.
	sort.Slice(res.Detections, func(i, j int) bool {
		return res.Detections[i].Fault < res.Detections[j].Fault
	})
	return res, nil
}

// expectedMatchesGood reports whether the batch's declared responses
// never definitely contradict the good machine's — the soundness
// condition for cone-masked detection.
func expectedMatchesGood[V lanevec.Vec[V]](b *Batch, pk *packedBatch[V], tr *goodTrace[V], checkReset bool) bool {
	if b.Expected != nil {
		for t := range pk.good1 {
			for j := range pk.good1[t] {
				if !pk.good1[t][j].And(tr.good0[t][j]).Or(pk.good0[t][j].And(tr.good1[t][j])).IsZero() {
					return false
				}
			}
		}
	}
	if checkReset && b.ResetExpected != nil {
		for j := range pk.reset1 {
			if !pk.reset1[j].And(tr.reset0[j]).Or(pk.reset0[j].And(tr.reset1[j])).IsZero() {
				return false
			}
		}
	}
	return true
}

// runUnit simulates the live representatives of one work unit on
// worker w's sticky machine and fans each verdict out to the class
// members.
func (e *engine[V]) runUnit(w int, pk *packedBatch[V], tr *goodTrace[V], df *traceDiffs, unit []int, lanes []LaneMask, eager bool) []Detection {
	s := e.s
	m := e.workers[w]
	if m == nil {
		m = newMachine[V](s.c)
		e.workers[w] = m
	}
	var found []Detection
	for _, fi := range unit {
		mask, lane, cycle, ok := e.runFault(m, pk, tr, df, fi, eager)
		if !ok {
			continue
		}
		words := LaneMask(mask.Words())
		for _, mi := range s.members[fi] {
			if s.dropped[mi] {
				continue
			}
			lanes[mi] = words
			found = append(found, Detection{Fault: mi, Lane: lane, Cycle: cycle})
		}
	}
	return found
}

// runFault evaluates one fault against the whole batch, stopping at the
// first detection unless NoDrop.  Event mode settles cone-limited
// against the good trace; sweep mode settles the whole circuit.
func (e *engine[V]) runFault(m *machine[V], pk *packedBatch[V], tr *goodTrace[V], df *traceDiffs, fi int, eager bool) (mask V, lane, cycle int, ok bool) {
	s := e.s
	event := e.mode == EngineEvent
	m.setAll(pk.all)
	if event {
		f := &s.universe[fi]
		cone := e.topo.ConeOf(s.c.Gates[f.Gate].Out)
		m.eventReset(f, cone, e.topo, tr, df, eager)
	} else {
		m.eng.Inject(&s.universe[fi])
		m.reset()
	}
	lane, cycle = -1, -1
	if s.opts.CheckReset {
		if d := m.detectVs(pk.reset1, pk.reset0); !d.IsZero() {
			// The reset state is pattern-independent, so against the good
			// machine's own reset the verdict is lane-uniform; per-lane
			// ResetExpected declarations can make it ragged.
			lane, cycle, ok = d.TrailingZeros(), -1, true
			mask = d
			if !s.opts.NoDrop {
				return mask, lane, cycle, true
			}
			// NoDrop promises the complete matrix: keep simulating the
			// per-cycle lanes below.
		}
	}
	for t := 0; t < pk.cycles; t++ {
		if event {
			m.eventApply(t, tr, df)
		} else {
			m.apply(pk.rails[t])
		}
		d := m.detectVs(pk.good1[t], pk.good0[t]).And(pk.live[t])
		if d.IsZero() {
			continue
		}
		if !ok {
			lane, cycle, ok = d.TrailingZeros(), t, true
		}
		mask = mask.Or(d)
		if !s.opts.NoDrop {
			break
		}
	}
	return mask, lane, cycle, ok
}
