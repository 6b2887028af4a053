package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	satpg "repro"
	"repro/internal/atpg"
	"repro/internal/compact"
	"repro/internal/fsim"
)

// setupSamples is how many times a run times its set-up; setup_s is
// the median, so one slow sample cannot move it.
const setupSamples = 31

// genWorkload is a generation workload: every pass parses the circuit
// texts afresh (the trace and topology caches are keyed by circuit
// pointer, and a CLI user pays for them on every run), then runs ATPG
// on each (circuit, model) pair and compacts the resulting program.
type genWorkload struct {
	texts   []string
	pairs   []genPair
	opts    satpg.Options
	nominal time.Duration // pass time on a 2-CPU machine, sets the pass count
}

type genPair struct {
	circuit int
	model   satpg.FaultModel
}

// runPaperTables is the paper's own experiment: cmd/tables at default
// options — the CSSG flow on every Table-1 and Table-2 circuit under
// output and input stuck-at — with each program then compacted.
func runPaperTables(cfg config) (*report, error) {
	w := &genWorkload{opts: satpg.Options{Seed: cfg.seed}, nominal: 15 * time.Second}
	for _, bm := range append(satpg.SpeedIndependentSuite(), satpg.HazardFreeSuite()...) {
		w.texts = append(w.texts, bm.Circuit.String())
		i := len(w.texts) - 1
		w.pairs = append(w.pairs, genPair{i, satpg.OutputStuckAt}, genPair{i, satpg.InputStuckAt})
	}
	return runGeneration(cfg, w)
}

// runDirectISCAS is the direct flow past the 64-signal ceiling: s349
// and s953 under input stuck-at with the PODEM budget of
// BenchmarkPodemHardFaults (the default budget spends ~6x the time on
// s953 for the same covered faults).
func runDirectISCAS(cfg config) (*report, error) {
	w := &genWorkload{opts: satpg.Options{Seed: cfg.seed, PodemBudget: 16}, nominal: 11 * time.Second}
	for _, name := range []string{"s349", "s953"} {
		b, err := os.ReadFile(filepath.Join("examples", "iscas", name+".ckt"))
		if err != nil {
			return nil, err
		}
		w.texts = append(w.texts, string(b))
		w.pairs = append(w.pairs, genPair{len(w.texts) - 1, satpg.InputStuckAt})
	}
	return runGeneration(cfg, w)
}

func (w *genWorkload) parseAll() ([]*satpg.Circuit, error) {
	cs := make([]*satpg.Circuit, len(w.texts))
	for i, t := range w.texts {
		c, err := satpg.ParseCircuitString(t, fmt.Sprintf("circuit%d", i))
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

// pairOut is one op: generation plus compaction of one pair.
type pairOut struct {
	c        *satpg.Circuit
	model    satpg.FaultModel
	g        *satpg.CSSG // nil on the direct flow
	res      *satpg.Result
	progs    []satpg.Program
	cr       *satpg.CompactionResult
	lat      time.Duration
	digest   [32]byte
	err      error
	atpgTime time.Duration // traced passes only
}

type genPass struct {
	parse, wall    time.Duration
	pairs          []pairOut
	cache          fsim.CacheStats // good-trace cache counters moved by the pass
	covered, tests int             // faults covered and compacted tests, over the ops
}

// pass runs the workload once.  With a tracer it records a root span
// for the pass and one span per call into a layer.
func (w *genWorkload) pass(ctx context.Context, tr *tracer, run string) (*genPass, error) {
	before := fsim.TraceCacheStats()
	root := tr.start(-1, run, "pass")
	t0 := time.Now()
	sp := tr.start(root, run, "netlist.parse")
	cs, err := w.parseAll()
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	p := &genPass{parse: time.Since(t0)}
	t1 := time.Now()
	for _, pr := range w.pairs {
		p.pairs = append(p.pairs, w.runPair(ctx, tr, root, run, cs[pr.circuit], pr.model))
	}
	p.wall = time.Since(t1)
	tr.stop(root)
	for _, o := range p.pairs {
		if o.err == nil {
			p.covered += o.res.Covered
			p.tests += o.cr.After
		}
	}
	after := fsim.TraceCacheStats()
	p.cache = fsim.CacheStats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Waits: after.Waits - before.Waits,
	}
	return p, nil
}

// runPair generates and compacts one pair.  The CSSG flow calls the two
// halves of satpg.Run (Abstract, then GenerateCtx) so the traced pass
// can span the abstraction apart from generation; the work is Run's.
func (w *genWorkload) runPair(ctx context.Context, tr *tracer, root int, run string, c *satpg.Circuit, model satpg.FaultModel) pairOut {
	o := pairOut{c: c, model: model}
	t0 := time.Now()
	if c.NumSignals() <= satpg.MaxExplicitSignals {
		sp := tr.start(root, run, "core.abstract")
		o.g, o.err = satpg.Abstract(c, w.opts)
		tr.stop(sp)
		if o.err == nil {
			sp = tr.start(root, run, "atpg.generate")
			o.res, o.err = satpg.GenerateCtx(ctx, o.g, model, w.opts)
			o.atpgTime = tr.stop(sp)
		}
		if o.err == nil {
			o.progs = satpg.Programs(o.g, o.res)
		}
	} else {
		sp := tr.start(root, run, "atpg.run")
		o.res, o.err = satpg.Run(ctx, c, model, w.opts)
		o.atpgTime = tr.stop(sp)
		if o.err == nil {
			o.progs = satpg.ProgramsForCircuit(c, o.res)
		}
	}
	if o.err == nil {
		sp := tr.start(root, run, "compact.program")
		o.cr, o.err = satpg.CompactProgram(c, o.progs, model, satpg.Options{Compact: satpg.CompactAll})
		tr.stop(sp)
	}
	o.lat = time.Since(t0)
	if o.err == nil {
		o.digest = pairDigest(o.res, o.cr)
	}
	return o
}

// pairDigest hashes everything a pair's outputs promise: the tests,
// every per-fault verdict, the search counters and the kept programs.
// Two repetitions of a pass must produce equal digests.
func pairDigest(r *satpg.Result, cr *satpg.CompactionResult) [32]byte {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(int64(r.Total), int64(r.Covered), int64(r.Untestable), int64(r.Aborted), int64(r.Fallback))
	put(int64(r.Podem.Targeted), int64(r.Podem.Found), r.Podem.Decisions, r.Podem.Backtracks, r.Podem.Settles)
	for _, t := range r.Tests {
		put(int64(len(t.Patterns)))
		for i := range t.Patterns {
			put(int64(t.Patterns[i]), int64(t.Expected[i]))
		}
	}
	for _, fr := range r.PerFault {
		put(b2i(fr.Detected), int64(fr.Phase), int64(fr.TestIndex), b2i(fr.Untestable), b2i(fr.Aborted))
	}
	put(int64(cr.Before), int64(cr.After))
	for _, k := range cr.Kept {
		put(int64(k))
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkPair is the correctness gate of one op, run outside the timed
// region: every CSSG-flow detection is re-verified on the exact
// set-semantics machine, every direct-flow result on the scalar
// oracle, and the compacted program must measure verdict-equal to the
// full one and consist of the original programs it claims to keep.
func checkPair(o *pairOut) error {
	if o.g != nil {
		for _, fr := range o.res.PerFault {
			if !fr.Detected {
				continue
			}
			if fr.TestIndex < 0 || fr.TestIndex >= len(o.res.Tests) {
				return fmt.Errorf("%s: fault %s credited to test %d of %d", o.c.Name, fr.Fault.Describe(o.c), fr.TestIndex, len(o.res.Tests))
			}
			if !satpg.VerifyTest(o.g, fr.Fault, o.res.Tests[fr.TestIndex]) {
				return fmt.Errorf("%s: fault %s not confirmed by the exact machine", o.c.Name, fr.Fault.Describe(o.c))
			}
		}
	} else if err := satpg.ValidateDirect(o.c, o.res); err != nil {
		return fmt.Errorf("%s: %w", o.c.Name, err)
	}
	if o.cr.Before != len(o.progs) || len(o.cr.Kept) != o.cr.After || len(o.cr.Programs) != o.cr.After {
		return fmt.Errorf("%s: compaction sizes inconsistent: before=%d after=%d kept=%d", o.c.Name, o.cr.Before, o.cr.After, len(o.cr.Kept))
	}
	for i, k := range o.cr.Kept {
		if k < 0 || k >= len(o.progs) || !sameProgram(o.cr.Programs[i], o.progs[k]) {
			return fmt.Errorf("%s: kept program %d is not original program %d", o.c.Name, i, k)
		}
	}
	full, err := satpg.MeasureProgramCoverage(o.c, o.progs, o.model, satpg.Options{})
	if err != nil {
		return err
	}
	kept, err := satpg.MeasureProgramCoverage(o.c, o.cr.Programs, o.model, satpg.Options{})
	if err != nil {
		return err
	}
	if !full.VerdictsEqual(kept) {
		return fmt.Errorf("%s: compaction changed coverage (%d -> %d detected)", o.c.Name, full.Detected, kept.Detected)
	}
	return nil
}

func sameProgram(a, b satpg.Program) bool {
	if a.ResetExpected != b.ResetExpected || len(a.Patterns) != len(b.Patterns) || len(a.Expected) != len(b.Expected) {
		return false
	}
	for i := range a.Patterns {
		if a.Patterns[i] != b.Patterns[i] {
			return false
		}
	}
	for i := range a.Expected {
		if a.Expected[i] != b.Expected[i] {
			return false
		}
	}
	return true
}

// checkFirst gates the ops of a run's first pass through the oracles
// and returns the oracle's time.
func checkFirst(rep *report, p *genPass) time.Duration {
	t0 := time.Now()
	for i := range p.pairs {
		o := &p.pairs[i]
		rep.attempted++
		if o.err != nil {
			rep.fail("pass 1 op %d: %v", i, o.err)
		} else if err := checkPair(o); err != nil {
			rep.fail("pass 1 op %d: %v", i, err)
		}
	}
	return time.Since(t0)
}

// checkRepeat gates the ops of a later pass by digest against the
// first pass's.
func checkRepeat(rep *report, p, first *genPass, k int) {
	for i, o := range p.pairs {
		rep.attempted++
		switch {
		case o.err != nil:
			rep.fail("pass %d op %d: %v", k, i, o.err)
		case o.digest != first.pairs[i].digest:
			rep.fail("pass %d op %d: outputs differ from pass 1", k, i)
		}
	}
}

// dropOutputs releases a repetition's results once its digests are
// taken, so later passes do not hold every pass's programs alive.
func (p *genPass) dropOutputs() {
	for i := range p.pairs {
		p.pairs[i] = pairOut{lat: p.pairs[i].lat, digest: p.pairs[i].digest, err: p.pairs[i].err}
	}
}

func timeSetups(w *genWorkload, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := w.parseAll(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func runGeneration(cfg config, w *genWorkload) (*report, error) {
	ctx := context.Background()
	rep := &report{checksOK: true, metrics: map[string]float64{}}
	if cfg.traced {
		return traceGeneration(ctx, cfg, w, rep)
	}
	// Each pass parses afresh, so each pass is one set-up sample; the
	// extra samples make the median robust when a run has few passes.
	setups, err := timeSetups(w, setupSamples)
	if err != nil {
		return nil, err
	}
	var passes []*genPass
	var rss float64
	var oracle time.Duration
	for k := 0; k < passCount(cfg, w.nominal, 2); k++ {
		freshHeap()
		p, err := w.pass(ctx, nil, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.parse)
		if k == 0 {
			rss = peakRSSMB() // set-up and one pass, before any oracle runs
			oracle = checkFirst(rep, p)
		} else {
			checkRepeat(rep, p, passes[0], k+1)
		}
		p.dropOutputs()
		passes = append(passes, p)
	}

	var walls, opsPerS []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		opsPerS = append(opsPerS, float64(len(p.pairs))/p.wall.Seconds())
	}
	// Every pass repeats the same ops, so each op's latency is its
	// median over the passes, and the percentile is over the ops.
	lats := make([]float64, len(w.pairs))
	for i := range w.pairs {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, float64(p.pairs[i].lat)/float64(time.Millisecond))
		}
		lats[i] = median(xs)
	}
	rep.set("setup_s", median(seconds(setups)))
	rep.set("wall_s", median(walls))
	rep.set("op_p99_ms", percentile(lats, 99))
	rep.set("ops_per_s", median(opsPerS))
	rep.set("faults_covered", float64(passes[0].covered))
	rep.set("program_tests", float64(passes[0].tests))
	rep.set("peak_rss_mb", rss)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"pass walls=%.3v s; ops/pass=%d latency samples=%d (per-op medians) setup samples=%d oracle=%.2fs failed=%d/%d",
		walls, len(w.pairs), len(lats), len(setups), oracle.Seconds(), rep.failed, rep.attempted))
	return rep, nil
}

// fallbackOutcome maps a verdict to the outcome the exhaustive
// three-phase search gave it; ok is false for faults it never saw.
func fallbackOutcome(fr atpg.FaultResult) (atpg.Outcome, bool) {
	switch {
	case fr.Detected && fr.Phase == atpg.PhaseThree:
		return atpg.OutcomeFound, true
	case fr.Untestable:
		return atpg.OutcomeUntestable, true
	case fr.Aborted:
		return atpg.OutcomeAborted, true
	}
	return 0, false
}

// layerProbes holds the probe timings that split the atpg and compact
// spans into the layers behind them.
type layerProbes struct {
	noPodem, fallback, matrix, fsimTime time.Duration
	fallbackCalls                       int
	fsimPatterns                        int64
}

// probe replays, per pair of the traced pass, the calls that isolate a
// layer: generation with SkipPodem (the PODEM parity suite pins its
// random phase as identical), every exhaustive fallback search through
// atpg.GenerateTest, the compaction's detection matrix through
// compact.BuildMatrix, and a NoDrop fsim pass over the generated tests.
// The good-trace cache is emptied before each call, so no probe is
// served by the pass or by an earlier probe.
func (w *genWorkload) probe(ctx context.Context, rep *report, tr *tracer, pass *genPass) layerProbes {
	const run = "probe"
	root := tr.start(-1, run, "probe")
	defer tr.stop(root)
	var lp layerProbes
	skip := w.opts
	skip.SkipPodem = true
	for i := range pass.pairs {
		o := &pass.pairs[i]
		if o.err != nil {
			continue
		}
		var err error
		flushTraceCache()
		sp := tr.start(root, run, "atpg.skip_podem")
		if o.g != nil {
			_, err = satpg.GenerateCtx(ctx, o.g, o.model, skip)
		} else {
			_, err = satpg.Run(ctx, o.c, o.model, skip)
		}
		lp.noPodem += tr.stop(sp)
		if err != nil {
			rep.mismatch("probe op %d: %v", i, err)
			continue
		}
		if o.g != nil {
			calls := 0
			sp = tr.start(root, run, "atpg.fallback")
			for _, fr := range o.res.PerFault {
				want, ok := fallbackOutcome(fr)
				if !ok {
					continue
				}
				calls++
				if _, got := atpg.GenerateTest(o.g, fr.Fault, atpg.Options{Seed: w.opts.Seed}); got != want {
					rep.mismatch("probe op %d: fallback on %s gave outcome %d, the run recorded %d", i, fr.Fault.Describe(o.c), got, want)
				}
			}
			lp.fallback += tr.stop(sp)
			lp.fallbackCalls += calls
			if calls != o.res.Fallback {
				rep.mismatch("probe op %d: %d faults reached the fallback, the run counted %d calls", i, calls, o.res.Fallback)
			}
		}
		universe := satpg.Universe(o.c, o.model)
		flushTraceCache()
		sp = tr.start(root, run, "compact.matrix")
		_, err = compact.BuildMatrix(o.c, o.progs, universe, compact.Options{})
		lp.matrix += tr.stop(sp)
		if err != nil {
			rep.mismatch("probe op %d: %v", i, err)
		}
		var seqs, exp [][]uint64
		for _, t := range o.res.Tests {
			if len(t.Patterns) > 0 {
				seqs = append(seqs, t.Patterns)
				exp = append(exp, t.Expected)
			}
		}
		if len(seqs) == 0 {
			continue
		}
		flushTraceCache()
		sp = tr.start(root, run, "fsim.simulate")
		s, err := fsim.New(o.c, universe, fsim.Options{NoDrop: true})
		if err == nil {
			err = s.SimulateSequences(seqs, exp, nil, func(int, *fsim.BatchResult) {})
		}
		lp.fsimTime += tr.stop(sp)
		if err != nil {
			rep.mismatch("probe op %d: %v", i, err)
			continue
		}
		lp.fsimPatterns += s.Stats().Patterns
	}
	return lp
}

// flushTraceCache empties the shared good-trace cache and re-enables it
// at its previous capacity.
func flushTraceCache() {
	c := fsim.TraceCacheStats().Cap
	fsim.SetTraceCacheCap(0)
	fsim.SetTraceCacheCap(c)
}

// traceGeneration is the per-layer run: one untraced pass as the
// overhead baseline, one traced pass, the layer probes, and the oracle.
func traceGeneration(ctx context.Context, cfg config, w *genWorkload, rep *report) (*report, error) {
	setups, err := timeSetups(w, setupSamples)
	if err != nil {
		return nil, err
	}
	freshHeap()
	base, err := w.pass(ctx, nil, "")
	if err != nil {
		return nil, err
	}
	base.dropOutputs()
	tr := newTracer()
	rep.tr = tr
	freshHeap()
	p, err := w.pass(ctx, tr, "pass")
	if err != nil {
		return nil, err
	}
	lp := w.probe(ctx, rep, tr, p)
	oracle := checkFirst(rep, p)
	checkRepeat(rep, base, p, 2)

	spans := tr.snapshot()
	root, err := rootSpan(spans, "pass")
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans, "pass")
	rootDur := (root.End - root.Start).Seconds()

	var builds, states, edges, fallbackCalls, untestable, aborted, tests int
	var podemSt struct {
		targeted, found                int
		decisions, backtracks, settles int64
	}
	var fs satpg.FaultSimStats
	var before, after int
	var matrixPatterns int64
	cssg := false
	for _, o := range p.pairs {
		if o.err != nil {
			continue
		}
		if o.g != nil {
			cssg = true
			builds++
			states += o.g.Stats.NumStates
			edges += o.g.Stats.NumEdges
		}
		r := o.res
		fallbackCalls += r.Fallback
		untestable += r.Untestable
		aborted += r.Aborted
		tests += len(r.Tests)
		podemSt.targeted += r.Podem.Targeted
		podemSt.found += r.Podem.Found
		podemSt.decisions += r.Podem.Decisions
		podemSt.backtracks += r.Podem.Backtracks
		podemSt.settles += r.Podem.Settles
		fs.Patterns += r.FaultSim.Patterns
		fs.GateEvals += r.FaultSim.GateEvals
		fs.Allocs += r.FaultSim.Allocs
		before += o.cr.Before
		after += o.cr.After
		matrixPatterns += o.cr.Matrix.Stats.Patterns
	}
	atpgS := self["atpg"].Seconds()
	podemS := atpgS - lp.noPodem.Seconds()
	randomS := lp.noPodem.Seconds()
	if cssg {
		randomS -= lp.fallback.Seconds()
	}

	rep.set("netlist.parse_s", median(seconds(setups)))
	rep.set("core.build_s", self["core"].Seconds())
	rep.set("core.builds", float64(builds))
	rep.set("core.states", float64(states))
	rep.set("core.edges", float64(edges))
	rep.set("atpg.generate_s", atpgS)
	rep.set("atpg.random_s", randomS)
	rep.set("atpg.fallback_calls", float64(fallbackCalls))
	rep.set("atpg.fallback_s", lp.fallback.Seconds())
	rep.set("atpg.untestable", float64(untestable))
	rep.set("atpg.aborted", float64(aborted))
	rep.set("atpg.tests_generated", float64(tests))
	rep.set("podem.targeted", float64(podemSt.targeted))
	rep.set("podem.found", float64(podemSt.found))
	rep.set("podem.found_ratio", ratio(float64(podemSt.found), float64(podemSt.targeted)))
	rep.set("podem.decisions", float64(podemSt.decisions))
	rep.set("podem.backtracks", float64(podemSt.backtracks))
	rep.set("podem.settles", float64(podemSt.settles))
	rep.set("podem.target_s", podemS)
	rep.set("podem.us_per_decision", ratio(podemS*1e6, float64(podemSt.decisions)))
	rep.set("fsim.patterns", float64(fs.Patterns))
	rep.set("fsim.gate_evals", float64(fs.GateEvals))
	rep.set("fsim.gate_evals_per_pattern", ratio(float64(fs.GateEvals), float64(fs.Patterns)))
	rep.set("fsim.allocs", float64(fs.Allocs))
	rep.set("fsim.allocs_per_pattern", ratio(float64(fs.Allocs), float64(fs.Patterns)))
	rep.set("fsim.timed_s", lp.fsimTime.Seconds())
	rep.set("fsim.timed_patterns", float64(lp.fsimPatterns))
	rep.set("fsim.ns_per_pattern", ratio(float64(lp.fsimTime.Nanoseconds()), float64(lp.fsimPatterns)))
	rep.set("fsim.trace_cache_hits", float64(p.cache.Hits))
	rep.set("fsim.trace_cache_misses", float64(p.cache.Misses))
	rep.set("fsim.trace_cache_waits", float64(p.cache.Waits))
	rep.set("compact.matrix_s", lp.matrix.Seconds())
	rep.set("compact.passes_s", self["compact"].Seconds()-lp.matrix.Seconds())
	rep.set("compact.tests_before", float64(before))
	rep.set("compact.tests_after", float64(after))
	rep.set("compact.matrix_patterns", float64(matrixPatterns))
	for _, m := range serviceLayerMetrics {
		rep.set(m, 0) // no service, store or HTTP on a generation workload
	}
	rep.set("oracle.check_s", oracle.Seconds())
	var traced, untraced []time.Duration
	for i := range p.pairs {
		traced = append(traced, p.pairs[i].lat)
		untraced = append(untraced, base.pairs[i].lat)
	}
	rep.set("trace.overhead_frac", overheadFrac(traced, untraced))
	setShares(rep, self, rootDur)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"traced pass %.2fs (untraced %.2fs); probes: skip-podem %.2fs fallback %.2fs (%d calls) matrix %.2fs fsim %.2fs; failed=%d/%d",
		rootDur, (base.parse+base.wall).Seconds(), lp.noPodem.Seconds(), lp.fallback.Seconds(), lp.fallbackCalls,
		lp.matrix.Seconds(), lp.fsimTime.Seconds(), rep.failed, rep.attempted))
	return rep, nil
}

// overheadFrac compares the traced pass with the untraced one op by
// op: the median of traced/untraced op time, minus one.  Pairing by op
// keeps a noisy stretch of one pass from reading as tracing cost.
func overheadFrac(traced, untraced []time.Duration) float64 {
	var rs []float64
	for i := range traced {
		if untraced[i] > 0 {
			rs = append(rs, traced[i].Seconds()/untraced[i].Seconds())
		}
	}
	return median(rs) - 1
}

// traceLayers are the layers the benchmark's spans name; each gets its
// share of the traced pass's wall time.
var traceLayers = []string{"netlist", "core", "atpg", "compact", "service", "resultstore"}

// setShares reports the traced pass's wall time, each layer's self
// time as a share of it, and the share no layer span covers (the
// root's self time).
func setShares(rep *report, self map[string]time.Duration, rootDur float64) {
	rep.set("trace.pass_s", rootDur)
	for _, l := range traceLayers {
		rep.set("trace."+l+"_frac", self[l].Seconds()/rootDur)
	}
	rep.set("trace.unattributed_frac", self["pass"].Seconds()/rootDur)
}
