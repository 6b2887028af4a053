// Package fsim is the repository's bit-parallel fault simulator: the
// pattern-parallel instantiation of the shared lanevec sweep core.  It
// evaluates one fault at a time, injected into every lane by
// lanevec.Engine.Inject, against a whole batch of test sequences (the
// PPSFP — parallel-pattern single-fault propagation — orientation),
// 64 sequences per batch, one machine word per signal.  Coverage
// measurement, compaction and both generation flows run on it; a flow
// screens each newly generated test as a one-lane batch on the same
// Simulator that screened its random walks.  For the "many tests ×
// many faults" workload this is the winning shape, because it composes
// with the standard ATPG scaling moves:
//
//   - fault collapsing: structurally equivalent faults (faults.Collapse)
//     are simulated once per class and the verdict is fanned back out to
//     every member, so the simulated universe is smaller than the
//     reported one;
//   - structural pruning: the event engine never simulates a class
//     whose faulty gate's fanout cone holds no primary output
//     (faults.Unobservable) — its outputs equal the good machine's
//     under every input, so it can detect only where a batch's declared
//     responses contradict the good response, and that verdict is read
//     off the good trace once per batch for all such classes;
//   - fault dropping: a fault is removed from the simulation the moment
//     one lane guarantees its detection, so late faults never pay for
//     patterns that early faults already answered;
//   - parallelism: faults are independent once the good trace is
//     computed, so GOMAXPROCS workers take the live classes one at a
//     time from a shared cursor, each on its own lane machine, which
//     stays sticky (cache-warm) across batches.
//
// The good trace itself is recorded once per batch, on the Simulator's
// own good machine into arrays the Simulator reuses, so a stream of
// same-shaped batches allocates nothing for it.  The package keeps no
// state outside its Simulators.
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
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// EngineKind selects the settling strategy of the fault machines.
type EngineKind uint8

// Engine kinds.  Both produce bit-identical detected sets (the
// differential tests assert it); they differ only in how much work a
// fault costs.
const (
	// EngineEvent (the default) is the event-driven cone-limited
	// engine: each fault re-simulates only the gates in its fanout
	// cone whose inputs actually changed relative to the batch's good
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
	// Workers caps the goroutines a batch runs its live classes on
	// (0: GOMAXPROCS, which every caller above fsim uses).  Like Engine,
	// only tests and benchmarks set it.
	Workers int
	// Engine selects event-driven cone-limited settling (default) or
	// the full-sweep oracle.  Detected sets are identical either way;
	// only the differential tests and microbenchmarks pick the sweep.
	Engine EngineKind
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

// LaneMask is a bitset over the sequences of a DetectionMatrix row:
// sequence l lives at bit l&63 of word l>>6.  A nil mask is empty.
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
	// its detection (bit l: lane l).  With dropping enabled only the
	// lanes seen up to the dropping cycle are set; with NoDrop it is the
	// full matrix.  Faults dropped in earlier batches stay empty.
	Lanes []uint64
	// Detections lists the faults detected in this batch, ascending by
	// fault index, with their first detecting lane and cycle.
	Detections []Detection
}

// Stats reports the cumulative work counters of a Simulator.
type Stats struct {
	// Patterns is the number of test patterns applied so far, summed
	// over lanes (each sequence cycle of each lane counts once).
	Patterns int64
	// GateEvals is the number of gate evaluations performed across the
	// good machine and every fault machine — the work the event-driven
	// engine exists to shrink.
	GateEvals int64
	// Allocs is the number of backing-array allocations the engine
	// performed serving this Simulator's batches: growth of the
	// packed-batch arenas, of the good trace and its diff bitsets, and
	// of the machines' scratch.  All of them are reused, so it settles
	// to zero across same-shaped batches, whatever their sequences —
	// the regression canary for the hot path's allocation discipline.
	Allocs int64
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

// Line renders the counters as the one-line work summary cmd/satpg
// prints under -stats.
func (st Stats) Line() string {
	return fmt.Sprintf("patterns=%d gate-evals/pattern=%.1f allocs/pattern=%.4f",
		st.Patterns, st.EvalsPerPattern(), st.AllocsPerPattern())
}

// CacheStats is always zero: there is no good-trace cache, each
// Simulator records its own trace.  It stays, with TraceCacheStats and
// SetTraceCacheCap, only because the atpgbench module still reads its
// fsim.trace_cache_* rows through them, until a benchmark change drops
// those rows.
type CacheStats struct {
	Hits, Misses, Waits int64
	Cap                 int
}

// TraceCacheStats returns the zero CacheStats.
func TraceCacheStats() CacheStats { return CacheStats{} }

// SetTraceCacheCap does nothing; see CacheStats.
func SetTraceCacheCap(int) {}

// Simulator carries a fault universe across batches, dropping detected
// faults as it goes.  It simulates one representative per structural
// equivalence class (faults.Collapse) and fans each verdict out to the
// class members, unless Options.NoCollapse.  It owns the sticky good
// machine, the per-worker machines, the good trace and the batch
// scratch, so allocations and cache-warm state survive across batches.
type Simulator struct {
	c        *netlist.Circuit
	universe []faults.Fault
	opts     Options

	// members[r] lists the universe indices equivalent to representative
	// r (including r itself); nil for non-representatives.
	members [][]int
	// reps lists the representatives the batches simulate, fixed at New.
	reps []int
	// dead lists the representatives set aside at New because their
	// faults are faults.Unobservable (event engine only: the sweep
	// engine stays the unpruned oracle).  reps does not hold them; run
	// answers for them with deadVerdict.
	dead []int
	// owned marks the universe indices this Simulator's shard simulates
	// (nil: unsharded, everything owned).
	owned []bool

	// live is run's scratch for reps filtered down to live classes,
	// next the cursor its workers take them from, and found their
	// per-worker detection lists, all kept across batches.
	live  []int
	next  atomic.Int64
	found [][]Detection
	wg    sync.WaitGroup

	topo    *netlist.Topology // cone index; event mode only
	good    *machine          // built on first use, reused for good runs
	workers []*machine        // sticky per-worker machines
	pk      packedBatch       // pooled packed-batch arenas, reused per run
	tr      goodTrace         // the current batch's good trace, reused per run
	df      traceDiffs        // tr's diff bitsets; event mode only

	dropped  []bool // no longer simulated (detected, unless NoDrop)
	detected []bool // ever detected
	ndet     int

	patterns int64 // applied patterns, summed over lanes
	allocs   int64 // packed-batch and trace backing-array allocations
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
	s := &Simulator{
		c: c, universe: universe, opts: opts,
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
	if opts.Engine == EngineEvent {
		s.topo = c.Topology()
		// Set the unobservable classes aside after the shard cut, so the
		// round-robin (and with it Owns) is the same as without pruning,
		// and once, so no batch pays for filtering them out.
		observable := reps[:0:0]
		for _, fi := range reps {
			if faults.Unobservable(c, universe[fi]) {
				s.dead = append(s.dead, fi)
			} else {
				observable = append(observable, fi)
			}
		}
		reps = observable
	}
	s.reps = reps
	s.live = make([]int, 0, len(reps))
	nw := max(min(opts.workers(), len(reps)), 1)
	s.workers = make([]*machine, nw)
	s.found = make([][]Detection, nw)
	return s, nil
}

// Stats returns the cumulative work counters.
func (s *Simulator) Stats() Stats {
	st := Stats{Patterns: s.patterns, Allocs: s.allocs}
	for _, m := range append([]*machine{s.good}, s.workers...) {
		if m != nil {
			st.GateEvals += m.eng.GateEvals()
			st.Allocs += m.allocs
		}
	}
	return st
}

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

// Remaining returns the indices of the faults not yet dropped
// (unobservable ones included, although no batch simulates them).
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

// deadLive reports whether any unobservable class still has a live
// member.
func (s *Simulator) deadLive() bool {
	for _, fi := range s.dead {
		if s.repLive(fi) {
			return true
		}
	}
	return false
}

// SimulateBatch evaluates every remaining fault class against the
// batch, spread across the workers, and returns the
// per-fault detection masks.  Detected faults are dropped from future
// batches unless NoDrop is set.
func (s *Simulator) SimulateBatch(b Batch) (*BatchResult, error) {
	res, err := s.run(&b)
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

// SimulateSequences chunks a sequence set into 64-lane batches and
// simulates each, invoking record with the base sequence index of every
// batch (lane l of that batch is sequence base+l).  An empty set still
// simulates one empty-lane batch, so reset-observable faults are
// measured when CheckReset is on.  expected and resetExpected may be
// nil; when present they must parallel seqs.
func (s *Simulator) SimulateSequences(seqs, expected [][]uint64, resetExpected []uint64, record func(base int, br *BatchResult)) error {
	return s.SimulateSequencesCtx(context.Background(), seqs, expected, resetExpected, record)
}

// SimulateSequencesCtx is SimulateSequences with cooperative
// cancellation: the context is checked between batches, so
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
	for base := 0; base < len(seqs); base += Lanes {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+Lanes, len(seqs))
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

// computeTrace records the good machine's trace for the packed batch
// into the Simulator's own trace.  The event engine records the
// full-state trace and derives its diff bitsets here, before any
// worker starts; the sweep engine records the reset response and, when
// needCycles, the per-cycle outputs.
func (s *Simulator) computeTrace(needCycles bool) {
	if s.good == nil {
		s.good = newMachine(s.c)
	}
	if s.opts.Engine == EngineEvent {
		s.tr.runEvents(s.good, &s.pk, s.topo, &s.allocs)
		s.df.compute(s.c, &s.tr, s.good.initW, &s.allocs)
		return
	}
	s.tr.run(s.good, &s.pk, needCycles, &s.allocs)
}

// run simulates one batch: pack, fill the response trace, then settle
// every live fault class on the workers.
func (s *Simulator) run(b *Batch) (*BatchResult, error) {
	pk := &s.pk
	if err := pack(s.c, b, pk, &s.allocs); err != nil {
		return nil, err
	}
	if b.Expected != nil {
		pk.traceFromExpected(s.c, b, &s.allocs)
	}
	if b.ResetExpected != nil {
		pk.traceFromResetExpected(s.c, b, &s.allocs)
	}
	res := &BatchResult{Lanes: make([]uint64, len(s.universe))}
	live := s.live[:0]
	for _, fi := range s.reps {
		if s.repLive(fi) {
			live = append(live, fi)
		}
	}
	s.live = live
	// An unobservable class can detect only where declared responses
	// contradict the good trace, so without declared responses it has
	// nothing to answer.
	deadLive := (b.Expected != nil || s.opts.CheckReset && b.ResetExpected != nil) && s.deadLive()
	if len(live) == 0 && !deadLive {
		// Nothing left to simulate: skip the good run entirely.
		return res, nil
	}

	// The reset trace is only consulted under CheckReset, so a batch
	// that declares its Expected responses and doesn't check reset
	// needs no good run for the sweep engine; the event engine always
	// needs the good machine's state trace to seed its cones (one good
	// run buys every fault a cone-limited ride).
	event := s.opts.Engine == EngineEvent
	needReset := s.opts.CheckReset && b.ResetExpected == nil
	needCycles := pk.good1 == nil
	if event || needReset || needCycles {
		s.computeTrace(needCycles)
		if pk.reset1 == nil {
			pk.reset1, pk.reset0 = s.tr.reset1, s.tr.reset0
		}
		if needCycles {
			pk.good1, pk.good0 = s.tr.good1, s.tr.good0
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
	if event && !eager {
		eager = !expectedMatchesGood(b, pk, &s.tr, s.opts.CheckReset)
	}

	// On a lazy batch the unobservable classes detect nothing: the
	// declared responses agree with the good trace, which is all their
	// outputs ever show.  On an eager batch they get the good trace's
	// own contradiction of the declared responses.
	if eager && deadLive {
		if mask, lane, cycle, ok := deadVerdict(pk, &s.tr, s.opts.CheckReset, s.opts.NoDrop); ok {
			for _, fi := range s.dead {
				res.Detections = s.fanOut(fi, mask, lane, cycle, res.Lanes, res.Detections)
			}
		}
	}

	// Each worker takes one class at a time from the shared cursor, so
	// none finishes more than one class behind the others and no cost
	// estimate is needed to balance them.  Class members are disjoint,
	// so workers write disjoint res.Lanes entries (the trace and diffs
	// are shared read-only).  The caller is worker 0: a one-worker batch
	// starts no goroutine.
	s.next.Store(0)
	nw := min(len(s.workers), len(live))
	for w := 1; w < nw; w++ {
		s.wg.Add(1)
		// Arguments, not captures: a captured eager would move to the
		// heap on every batch, one-worker batches included.
		go func(w int, lanes []uint64, eager bool) {
			defer s.wg.Done()
			s.work(w, lanes, eager)
		}(w, res.Lanes, eager)
	}
	if nw > 0 {
		s.work(0, res.Lanes, eager)
	}
	s.wg.Wait()
	n := 0
	for _, part := range s.found[:nw] {
		n += len(part)
	}
	res.Detections = slices.Grow(res.Detections, n)
	for _, part := range s.found[:nw] {
		res.Detections = append(res.Detections, part...)
	}
	// Which worker takes which class varies from batch to batch; sorting
	// by fault index keeps the result deterministic regardless.
	slices.SortFunc(res.Detections, func(a, b Detection) int { return a.Fault - b.Fault })
	return res, nil
}

// expectedMatchesGood reports whether the batch's declared responses
// never definitely contradict the good machine's — the soundness
// condition for cone-masked detection.
func expectedMatchesGood(b *Batch, pk *packedBatch, tr *goodTrace, checkReset bool) bool {
	if b.Expected != nil {
		for t := range pk.good1 {
			if contradiction(tr.good1[t], tr.good0[t], pk.good1[t], pk.good0[t]) != 0 {
				return false
			}
		}
	}
	if checkReset && b.ResetExpected != nil {
		if contradiction(tr.reset1, tr.reset0, pk.reset1, pk.reset0) != 0 {
			return false
		}
	}
	return true
}

// contradiction returns the lanes where some output of the response
// (got1, got0) is definite and opposite the definite value of the
// response (want1, want0).
func contradiction(got1, got0, want1, want0 []uint64) uint64 {
	var d uint64
	for j := range want1 {
		d |= got1[j]&want0[j] | got0[j]&want1[j]
	}
	return d
}

// deadVerdict is what a full simulation of any unobservable class
// detects on an eager batch, scanned exactly as runFault scans a fault
// machine's outputs.  Every output lies outside the class's cone, so
// by the cone theorem it shows the good trace's value in every lane,
// and detection is the good trace's own contradiction of the declared
// responses — one verdict shared by every such class.
func deadVerdict(pk *packedBatch, tr *goodTrace, checkReset, noDrop bool) (mask uint64, lane, cycle int, ok bool) {
	lane, cycle = -1, -1
	if checkReset {
		if d := contradiction(tr.reset1, tr.reset0, pk.reset1, pk.reset0) & pk.all; d != 0 {
			lane, ok, mask = bits.TrailingZeros64(d), true, d
			if !noDrop {
				return mask, lane, cycle, true
			}
		}
	}
	for t := 0; t < pk.cycles; t++ {
		d := contradiction(tr.good1[t], tr.good0[t], pk.good1[t], pk.good0[t]) & pk.all & pk.live[t]
		if d == 0 {
			continue
		}
		if !ok {
			lane, cycle, ok = bits.TrailingZeros64(d), t, true
		}
		mask |= d
		if !noDrop {
			break
		}
	}
	return mask, lane, cycle, ok
}

// work simulates live classes on worker w's sticky machine until the
// cursor runs past the last one, fanning each verdict out to the class
// members and collecting their Detections in the worker's found list.
func (s *Simulator) work(w int, lanes []uint64, eager bool) {
	m := s.workers[w]
	if m == nil {
		m = newMachine(s.c)
		s.workers[w] = m
	}
	found := s.found[w][:0]
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.live) {
			break
		}
		fi := s.live[i]
		if mask, lane, cycle, ok := s.runFault(m, fi, eager); ok {
			found = s.fanOut(fi, mask, lane, cycle, lanes, found)
		}
	}
	s.found[w] = found
}

// fanOut records representative fi's detection (lane mask, first lane
// and cycle) for every live member of its class, appending their
// Detections to found.
func (s *Simulator) fanOut(fi int, mask uint64, lane, cycle int, lanes []uint64, found []Detection) []Detection {
	for _, mi := range s.members[fi] {
		if s.dropped[mi] {
			continue
		}
		lanes[mi] = mask
		found = append(found, Detection{Fault: mi, Lane: lane, Cycle: cycle})
	}
	return found
}

// runFault evaluates one fault against the whole batch, stopping at the
// first detection unless NoDrop.  Event mode settles cone-limited
// against the good trace; sweep mode settles the whole circuit.
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
// unchanged.  The fault machines therefore admit only cone gates to
// their event queues and serve everything else from the batch's
// good-state trace, which also means DetectVs sees exactly the values
// the full simulation would produce: bit-identical detection, a
// fraction of the gate evaluations.
func (s *Simulator) runFault(m *machine, fi int, eager bool) (mask uint64, lane, cycle int, ok bool) {
	pk := &s.pk
	event := s.opts.Engine == EngineEvent
	m.setAll(pk.all)
	if event {
		f := &s.universe[fi]
		cone := s.topo.ConeOf(s.c.Gates[f.Gate].Out)
		m.eventReset(f, cone, s.topo, &s.tr, &s.df, eager)
	} else {
		m.eng.Inject(&s.universe[fi])
		m.reset()
	}
	lane, cycle = -1, -1
	if s.opts.CheckReset {
		if d := m.detectVs(pk.reset1, pk.reset0); d != 0 {
			// The reset state is pattern-independent, so against the good
			// machine's own reset the verdict is lane-uniform; per-lane
			// ResetExpected declarations can make it ragged.
			lane, cycle, ok = bits.TrailingZeros64(d), -1, true
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
			m.eventApply(t, &s.tr, &s.df)
		} else {
			m.apply(pk.rails[t])
		}
		d := m.detectVs(pk.good1[t], pk.good0[t]) & pk.live[t]
		if d == 0 {
			continue
		}
		if !ok {
			lane, cycle, ok = bits.TrailingZeros64(d), t, true
		}
		mask |= d
		if !s.opts.NoDrop {
			break
		}
	}
	return mask, lane, cycle, ok
}
