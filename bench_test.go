package satpg

// Benchmark harness: every table and figure-level claim of the paper's
// evaluation has a bench that regenerates it.  See EXPERIMENTS.md for
// the mapping and the recorded paper-vs-measured comparison.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/dft"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/randckt"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/symb"
)

// benchSuite runs the full two-model ATPG flow for every circuit of a
// suite, reporting fault coverage as a metric — the machinery behind
// Tables 1 and 2.
func benchSuite(b *testing.B, suite []Benchmark) {
	for _, bm := range suite {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var covered, total int
			for i := 0; i < b.N; i++ {
				g, err := Abstract(bm.Circuit, Options{})
				if err != nil {
					b.Fatal(err)
				}
				out := generate(b, g, OutputStuckAt, Options{Seed: 1})
				in := generate(b, g, InputStuckAt, Options{Seed: 1})
				covered = out.Covered + in.Covered
				total = out.Total + in.Total
			}
			b.ReportMetric(100*float64(covered)/float64(total), "%cov")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: the speed-independent suite.
func BenchmarkTable1(b *testing.B) { benchSuite(b, SpeedIndependentSuite()) }

// BenchmarkTable2 regenerates Table 2: the hazard-free suite, including
// the redundant trio whose coverage collapses.
func BenchmarkTable2(b *testing.B) { benchSuite(b, HazardFreeSuite()) }

// BenchmarkCSSGConstruction isolates the §4 abstraction cost (the
// symbolic-traversal analogue of the paper's reachability step) and
// reports states/sec: settling-graph states explored per second, summed
// over every (node, pattern) exploration.  hf/trimos-send is the
// workload's largest graph (1,426,277 settling states) and the one whose
// explorations hit the truncation cap.
func BenchmarkCSSGConstruction(b *testing.B) {
	for _, ref := range []string{"si/chu150", "si/master-read", "si/mmu", "hf/vbe6a", "hf/trimos-send"} {
		c, err := LoadBenchmark(ref)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ref, func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				g, err := Abstract(c, Options{})
				if err != nil {
					b.Fatal(err)
				}
				states += g.Stats.SettlingStates
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
		})
	}
}

// BenchmarkRandomTPGAblation quantifies the §5.4 claim that random TPG
// covers a large fault fraction at low cost: the same flow with and
// without the random phase.
func BenchmarkRandomTPGAblation(b *testing.B) {
	c, err := LoadBenchmark("si/seq4")
	if err != nil {
		b.Fatal(err)
	}
	g, err := Abstract(c, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-random", func(b *testing.B) {
		var rnd int
		for i := 0; i < b.N; i++ {
			res := generate(b, g, InputStuckAt, Options{Seed: 1})
			rnd = res.ByPhase[1] // PhaseRandom
		}
		b.ReportMetric(float64(rnd), "rnd-detections")
	})
	b.Run("three-phase-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			generate(b, g, InputStuckAt, Options{Seed: 1, SkipRandom: true})
		}
	})
}

// BenchmarkFaultSimEngines compares the fault-simulation shapes on one
// seeded randckt circuit:
//
//   - serial-per-pattern: the scalar ternary machine, one fault × one
//     sequence at a time (the pre-fsim baseline), on a 64-sequence
//     batch;
//   - sweep-1 / sharded-N: the full-Jacobi-sweep fsim engine on the
//     same 64-sequence batch, full universe (NoCollapse) so the number
//     compares the sweep core itself against the pre-unification
//     engine;
//   - event-1: the event-driven cone-limited engine (the default) on
//     the same batch — same detected set, a fraction of the gate
//     evaluations;
//   - collapsed-1: the default configuration — event engine,
//     representatives only, verdicts fanned out — on the same batch;
//   - wide/<engine>/lanes-64: a 256-sequence workload in four 64-lane
//     batches, for both engines — the convergence-coupling comparison.
//
// Every variant drops a fault at its first detection, and every variant
// must report the same detected count — asserted against the scalar
// reference, not merely reported.  fsim variants additionally report
// patterns/sec and gate-evals/pattern.
func BenchmarkFaultSimEngines(b *testing.B) {
	c := benchRandCircuit(b)
	universe := faults.InputUniverse(c)
	const lanes, cycles = 64, 16
	rng := rand.New(rand.NewSource(7))
	mkSeqs := func(n int) [][]uint64 {
		m := c.NumInputs()
		seqs := make([][]uint64, n)
		for l := range seqs {
			seq := make([]uint64, cycles)
			for t := range seq {
				seq[t] = rng.Uint64() & (1<<uint(m) - 1)
			}
			seqs[l] = seq
		}
		return seqs
	}
	seqs := mkSeqs(lanes)
	cl := faults.Collapse(c, universe)
	b.Logf("circuit %s: %d gates, %d faults (%d classes), %d lanes × %d cycles",
		c.Name, c.NumGates(), len(universe), cl.NumClasses, lanes, cycles)
	want := serialFaultSim(c, universe, seqs)

	runEngine := func(b *testing.B, seqs [][]uint64, opts fsim.Options, want int) {
		b.Helper()
		var detected int
		var stats fsim.Stats
		for i := 0; i < b.N; i++ {
			s, err := fsim.New(c, universe, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.SimulateSequences(seqs, nil, nil, func(int, *fsim.BatchResult) {}); err != nil {
				b.Fatal(err)
			}
			detected = 0
			for fi := range universe {
				if s.Detected(fi) {
					detected++
				}
			}
			stats = s.Stats()
		}
		if detected != want {
			b.Fatalf("engine %+v found %d faults, scalar reference %d", opts, detected, want)
		}
		b.ReportMetric(float64(detected), "detected")
		b.ReportMetric(stats.EvalsPerPattern(), "gate-evals/pattern")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(stats.Patterns)*float64(b.N)/secs, "patterns/sec")
		}
	}

	b.Run("serial-per-pattern", func(b *testing.B) {
		var detected int
		for i := 0; i < b.N; i++ {
			detected = serialFaultSim(c, universe, seqs)
		}
		if detected != want {
			b.Fatalf("serial baseline nondeterministic: %d vs %d detected", detected, want)
		}
		b.ReportMetric(float64(detected), "detected")
	})
	// The sharded variant always runs with 4 workers so the worker-pool
	// path is measured even on small hosts; on machines with more cores
	// a GOMAXPROCS-wide variant is added too.
	workers := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		name := "sweep-1"
		if w != 1 {
			name = "sharded-" + strconv.Itoa(w)
		}
		w := w
		b.Run(name, func(b *testing.B) {
			runEngine(b, seqs, fsim.Options{Workers: w, Engine: fsim.EngineSweep, NoCollapse: true}, want)
		})
	}
	b.Run("event-1", func(b *testing.B) {
		runEngine(b, seqs, fsim.Options{Workers: 1, Engine: fsim.EngineEvent, NoCollapse: true}, want)
	})
	b.Run("collapsed-1", func(b *testing.B) {
		runEngine(b, seqs, fsim.Options{Workers: 1}, want)
	})

	// Batch throughput: the same fault universe against a 256-sequence
	// workload in four batches, for both engines.  A sweep batch
	// settles until its slowest lane converges; the event engine only
	// re-evaluates gates with active lanes, decoupling the batch from
	// its slowest member.  The names keep the lanes-64 segment of the
	// rows recorded when a 256-lane width existed, so old and new
	// transcripts still pair up.
	wideSeqs := mkSeqs(256)
	wideWant := serialFaultSim(c, universe, wideSeqs)
	for _, eng := range []fsim.EngineKind{fsim.EngineSweep, fsim.EngineEvent} {
		eng := eng
		b.Run("wide/"+eng.String()+"/lanes-64", func(b *testing.B) {
			runEngine(b, wideSeqs, fsim.Options{Workers: 1, Engine: eng, NoCollapse: true}, wideWant)
		})
	}
}

// BenchmarkEventVsSweepTable1 measures both fault-simulation engines on
// the Table-1 workload: every speed-independent benchmark circuit, a
// 256-walk random-pattern set, per fault model (input stuck-at, the
// transition universe, and their union).  Reported per variant:
// patterns/sec and gate-evals/pattern — the event engine must detect
// exactly what the sweeps detect while evaluating far fewer gates, on
// the combined universe included.  Sub-benchmark names are
// model/engine/lanes-64, the shape cmd/benchjson parses into the
// BENCH_*.json CI artifact; the lanes-64 segment is a constant kept so
// the rows pair with those recorded when a 256-lane width existed.
func BenchmarkEventVsSweepTable1(b *testing.B) {
	suite := SpeedIndependentSuite()
	type workload struct {
		c        *Circuit
		universe []faults.Fault
		seqs     [][]uint64
	}
	const nseq, cycles = 256, 16
	models := []struct {
		name     string
		universe func(c *Circuit) []faults.Fault
	}{
		{"input-sa", faults.InputUniverse},
		{"transition", faults.TransitionUniverse},
		{"both", func(c *Circuit) []faults.Fault {
			return append(faults.InputUniverse(c), faults.TransitionUniverse(c)...)
		}},
	}
	for _, model := range models {
		// A fresh rng per model keeps the sequence sets identical across
		// models, so only the universe varies between variants.
		rng := rand.New(rand.NewSource(13))
		var work []workload
		for _, bm := range suite {
			m := bm.Circuit.NumInputs()
			seqs := make([][]uint64, nseq)
			for l := range seqs {
				seq := make([]uint64, cycles)
				for t := range seq {
					seq[t] = rng.Uint64() & (1<<uint(m) - 1)
				}
				seqs[l] = seq
			}
			work = append(work, workload{
				c:        bm.Circuit,
				universe: model.universe(bm.Circuit),
				seqs:     seqs,
			})
		}
		// detectedAt takes the calling (sub-)benchmark's b: b.Fatal must
		// run on the goroutine of the benchmark it fails.
		detectedAt := func(b *testing.B, eng fsim.EngineKind) (int, fsim.Stats) {
			b.Helper()
			total := 0
			var stats fsim.Stats
			for _, w := range work {
				s, err := fsim.New(w.c, w.universe, fsim.Options{Workers: 1, Engine: eng})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.SimulateSequences(w.seqs, nil, nil, func(int, *fsim.BatchResult) {}); err != nil {
					b.Fatal(err)
				}
				for fi := range w.universe {
					if s.Detected(fi) {
						total++
					}
				}
				st := s.Stats()
				stats.Patterns += st.Patterns
				stats.GateEvals += st.GateEvals
			}
			return total, stats
		}
		wantDet, _ := detectedAt(b, fsim.EngineSweep)
		for _, eng := range []fsim.EngineKind{fsim.EngineSweep, fsim.EngineEvent} {
			eng := eng
			b.Run(model.name+"/"+eng.String()+"/lanes-64", func(b *testing.B) {
				var det int
				var stats fsim.Stats
				for i := 0; i < b.N; i++ {
					det, stats = detectedAt(b, eng)
				}
				if det != wantDet {
					b.Fatalf("%s %s detected %d faults, sweep oracle %d",
						model.name, eng, det, wantDet)
				}
				b.ReportMetric(float64(det), "detected")
				b.ReportMetric(stats.EvalsPerPattern(), "gate-evals/pattern")
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(stats.Patterns)*float64(b.N)/secs, "patterns/sec")
				}
			})
		}
	}
}

// BenchmarkISCASScale measures fault-simulation throughput at 10×–100×
// the Table-1 gate counts: the ISCAS89-class corpus spans one, six and
// sixteen packed-state words (s27/s349/s953), so the multi-word engine
// paths are on the clock, not just the single-word fast path.  Each
// sub-benchmark name carries signals-N, which cmd/benchjson lifts into
// the artifact's circuit-size dimension alongside the engine (and the
// constant lanes-64 segment that pairs the rows with older runs);
// reported metrics are patterns/sec, gate-evals/pattern and the
// detected count.  Event and sweep must agree on the detected count at
// every size — the multi-word parity assertion at benchmark scale.
func BenchmarkISCASScale(b *testing.B) {
	const cycles = 12
	// The full-sweep oracle costs O(classes × gates) per pattern, so the
	// largest circuit runs a smaller sequence set to keep the CI smoke
	// pass to one coffee, not one lunch; throughput metrics are
	// per-pattern and stay comparable.
	nseqOf := map[string]int{"s27": 128, "s349": 128, "s953": 32}
	for _, name := range []string{"s27", "s349", "s953"} {
		nseq := nseqOf[name]
		f, err := os.Open(filepath.Join("examples", "iscas", name+".ckt"))
		if err != nil {
			b.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
		}
		c, err := ParseCircuit(f, name)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		universe := faults.InputUniverse(c)
		rng := rand.New(rand.NewSource(29))
		m := c.NumInputs()
		seqs := make([][]uint64, nseq)
		for l := range seqs {
			seq := make([]uint64, cycles)
			for t := range seq {
				seq[t] = rng.Uint64() & (1<<uint(m) - 1)
			}
			seqs[l] = seq
		}
		want := -1
		for _, eng := range []fsim.EngineKind{fsim.EngineSweep, fsim.EngineEvent} {
			eng := eng
			b.Run(fmt.Sprintf("%s/signals-%d/%s/lanes-64", name, c.NumSignals(), eng), func(b *testing.B) {
				var detected int
				var stats fsim.Stats
				for i := 0; i < b.N; i++ {
					s, err := fsim.New(c, universe, fsim.Options{Workers: 1, Engine: eng})
					if err != nil {
						b.Fatal(err)
					}
					if err := s.SimulateSequences(seqs, nil, nil, func(int, *fsim.BatchResult) {}); err != nil {
						b.Fatal(err)
					}
					detected = 0
					for fi := range universe {
						if s.Detected(fi) {
							detected++
						}
					}
					stats = s.Stats()
				}
				if want < 0 {
					want = detected
				} else if detected != want {
					b.Fatalf("%s %s detected %d faults, first variant %d",
						name, eng, detected, want)
				}
				b.ReportMetric(float64(detected), "detected")
				b.ReportMetric(float64(c.NumGates()), "gates")
				b.ReportMetric(float64(c.StateWords()), "state-words")
				b.ReportMetric(stats.EvalsPerPattern(), "gate-evals/pattern")
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(stats.Patterns)*float64(b.N)/secs, "patterns/sec")
				}
			})
		}
	}
}

// BenchmarkCompactTable1 measures test-program compaction on the
// Table-1 workload: for each fault model, the full ATPG programs of
// every suite circuit are compacted in each mode.  Reported per
// variant: tests-removed/sec and the aggregate size reduction; the
// model/matrix sub-benchmark isolates the detection-matrix build and
// reports its patterns/sec.  Sub-benchmark names are model/mode, which
// cmd/benchjson lifts into the BENCH artifact.  Every mode variant
// asserts the compaction parity contract — the compacted programs must
// measure bit-identical per-fault coverage — so a coverage-losing pass
// fails the bench-smoke job exactly like a drifting engine.
func BenchmarkCompactTable1(b *testing.B) {
	suite := SpeedIndependentSuite()
	models := []struct {
		name string
		sel  FaultSelection
	}{
		{"input-sa", SelectStuckAt},
		{"transition", SelectTransition},
	}
	for _, model := range models {
		type workload struct {
			c     *Circuit
			progs []Program
			orig  ProgramCoverageSummary
		}
		opts := Options{Seed: 1, Faults: model.sel}
		var work []workload
		for _, bm := range suite {
			g, res := runCSSG(b, bm.Circuit, InputStuckAt, opts)
			progs := Programs(g, res)
			orig, err := MeasureProgramCoverage(bm.Circuit, progs, InputStuckAt, opts)
			if err != nil {
				b.Fatal(err)
			}
			work = append(work, workload{bm.Circuit, progs, orig})
		}
		b.Run(model.name+"/matrix", func(b *testing.B) {
			var patterns int64
			for i := 0; i < b.N; i++ {
				patterns = 0
				for _, w := range work {
					mx, err := compact.BuildMatrix(w.c, w.progs,
						faults.SelectUniverse(w.c, faults.InputSA, model.sel), compact.Options{})
					if err != nil {
						b.Fatal(err)
					}
					patterns += mx.Stats.Patterns
				}
			}
			b.ReportMetric(float64(patterns), "patterns")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(patterns)*float64(b.N)/secs, "patterns/sec")
			}
		})
		for _, mode := range []CompactMode{CompactReverse, CompactDominance, CompactGreedy, CompactAll} {
			mode := mode
			b.Run(model.name+"/"+mode.String(), func(b *testing.B) {
				copts := opts
				copts.Compact = mode
				var crs []*CompactionResult
				var removed, before, after int
				for i := 0; i < b.N; i++ {
					crs = crs[:0]
					removed, before, after = 0, 0, 0
					for _, w := range work {
						cr, err := CompactProgram(w.c, w.progs, InputStuckAt, copts)
						if err != nil {
							b.Fatal(err)
						}
						crs = append(crs, cr)
						removed += cr.Before - cr.After
						before += cr.Before
						after += cr.After
					}
				}
				b.StopTimer()
				// Parity: compaction must preserve every per-fault verdict
				// of the measured coverage (the compaction row of the
				// bench-smoke parity assertions).
				for wi, w := range work {
					sum, err := MeasureProgramCoverage(w.c, crs[wi].Programs, InputStuckAt, opts)
					if err != nil {
						b.Fatal(err)
					}
					if !sum.VerdictsEqual(w.orig) {
						b.Fatalf("%s mode %s: compaction changed measured coverage on %s: %d/%d vs %d/%d",
							model.name, mode, w.c.Name, sum.Detected, sum.Total, w.orig.Detected, w.orig.Total)
					}
				}
				b.ReportMetric(float64(removed), "tests-removed")
				b.ReportMetric(100*(1-float64(after)/float64(max(before, 1))), "%reduction")
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(removed)*float64(b.N)/secs, "tests-removed/sec")
				}
			})
		}
	}
}

// benchRandCircuit generates the deterministic workload circuit: the
// first seed whose topology stabilises, sized near the 64-signal cap.
func benchRandCircuit(b *testing.B) *Circuit {
	b.Helper()
	for seed := int64(1); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{
			MinInputs: 4, MaxInputs: 4, MinGates: 24, MaxGates: 28,
		})
		if ok {
			return c
		}
	}
	b.Fatal("no stable random circuit found")
	return nil
}

// serialFaultSim is the one-fault × one-sequence scalar baseline with
// fault dropping: the cost model fsim is measured against.
func serialFaultSim(c *Circuit, universe []faults.Fault, seqs [][]uint64) int {
	// Good trace per lane.
	good := sim.Machine{C: c}
	goodStates := make([][]logic.Vec, len(seqs))
	for l, seq := range seqs {
		st := good.InitState()
		goodStates[l] = make([]logic.Vec, len(seq))
		for t, p := range seq {
			st = good.Step(st, p)
			goodStates[l][t] = st
		}
	}
	detected := 0
	for fi := range universe {
		fm := sim.Machine{C: c, Fault: &universe[fi]}
	faultLoop:
		for l, seq := range seqs {
			st := fm.InitState()
			for t, p := range seq {
				st = fm.Step(st, p)
				gv := c.OutputVec(goodStates[l][t])
				fv := c.OutputVec(st)
				for j := range gv {
					if gv[j].IsDefinite() && fv[j].IsDefinite() && gv[j] != fv[j] {
						detected++
						break faultLoop // fault dropped
					}
				}
			}
		}
	}
	return detected
}

// BenchmarkKSweep explores the §4.1 trade-off: shorter test cycles
// (smaller k) reject slow-settling vectors, shrinking the CSSG.
func BenchmarkKSweep(b *testing.B) {
	c, err := LoadBenchmark("si/seq4")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{8, 16, 32, 64, 128} {
		k := k
		b.Run(byteCount(k), func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				g, err := Abstract(c, Options{K: k})
				if err != nil {
					b.Fatal(err)
				}
				edges = g.Stats.NumEdges
			}
			b.ReportMetric(float64(edges), "valid-edges")
		})
	}
}

func byteCount(k int) string {
	switch {
	case k < 10:
		return "k=00" + string(rune('0'+k))
	case k < 100:
		return "k=0" + string(rune('0'+k/10)) + string(rune('0'+k%10))
	default:
		return "k=" + string(rune('0'+k/100)) + string(rune('0'+k/10%10)) + string(rune('0'+k%10))
	}
}

// BenchmarkSymbolicVsExplicit compares the paper's BDD-based traversal
// with the explicit engine on the same circuit.
func BenchmarkSymbolicVsExplicit(b *testing.B) {
	c, err := LoadBenchmark("si/vbe5b")
	if err != nil {
		b.Fatal(err)
	}
	k := 2 * c.NumSignals()
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(c, core.Options{K: k}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("symbolic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := symb.NewEncoder(c)
			if _, err := e.ExtractEdges(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTesterValidation measures Monte-Carlo timed validation of a
// generated program (the §2/§6 delay-independence claim).
func BenchmarkTesterValidation(b *testing.B) {
	c, err := LoadBenchmark("si/chu150")
	if err != nil {
		b.Fatal(err)
	}
	g, res := runCSSG(b, c, InputStuckAt, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateOnTester(g, res, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison measures the §6.1 comparison experiment.
func BenchmarkBaselineComparison(b *testing.B) {
	for _, ref := range []string{"fig1a", "si/converta"} {
		c, err := LoadBenchmark(ref)
		if err != nil {
			b.Fatal(err)
		}
		g, err := Abstract(c, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ref, func(b *testing.B) {
			var opt float64
			for i := 0; i < b.N; i++ {
				cmp := baseline.Compare(g, faults.OutputSA, 200000)
				opt = cmp.Optimism()
			}
			b.ReportMetric(100*opt, "%optimism")
		})
	}
}

// BenchmarkSTGConformance measures the closed-loop verification of the
// pipeline circuit against its handshake specification.
func BenchmarkSTGConformance(b *testing.B) {
	spec, err := ParseSTGString(`
.model pipe2
.inputs Li Ra
.outputs c1 c2
.graph
Li+ c1+
c2- c1+
c1+ Li-
c1+ c2+
Ra- c2+
c2+ Ra+
c2+ c1-
Li- c1-
c1- Li+
c1- c2-
Ra+ c2-
c2- Ra-
.marking { <c1-,Li+> <c2-,c1+> <Ra-,c2+> }
.end
`, "pipe2.g")
	if err != nil {
		b.Fatal(err)
	}
	c, err := ParseCircuitString(`
circuit pipe2
input Li Ra
output c1 c2
gate n1 NOT c2
gate c1 C Li n1
gate n2 NOT Ra
gate c2 C c1 n2
init Li=0 Ra=0 n1=1 c1=0 n2=1 c2=0
`, "pipe2.ckt")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Conform(c, spec)
		if err != nil || !res.OK {
			b.Fatalf("conformance failed: %v %v", err, res)
		}
	}
}

// BenchmarkDFTRecovery measures the §6 test-point experiment: coverage
// before and after inserting a control point on the fork-join demo.
func BenchmarkDFTRecovery(b *testing.B) {
	c := dft.DemoCircuit()
	instrumented, err := InsertTestPoints(c, []TestPoint{{Signal: "bc", Kind: ControlPoint}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("before", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			_, res := runCSSG(b, c, InputStuckAt, Options{Seed: 1})
			cov = res.Coverage()
		}
		b.ReportMetric(100*cov, "%cov")
	})
	b.Run("after", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			_, res := runCSSG(b, instrumented, InputStuckAt, Options{Seed: 1})
			cov = res.Coverage()
		}
		b.ReportMetric(100*cov, "%cov")
	})
}

// BenchmarkHazardScan measures the semi-modularity diagnostic over a
// benchmark's valid vectors.
func BenchmarkHazardScan(b *testing.B) {
	c, err := LoadBenchmark("si/chu150")
	if err != nil {
		b.Fatal(err)
	}
	g, err := Abstract(c, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var n int
	for i := 0; i < b.N; i++ {
		n = len(g.Hazards(0))
	}
	b.ReportMetric(float64(n), "glitches")
}

// BenchmarkSymbolicJustification measures the BDD-based realisation of
// ATPG phases 1–2 (activation + justification) against the explicit
// shortest-path search.
func BenchmarkSymbolicJustification(b *testing.B) {
	c, err := LoadBenchmark("si/vbe5b")
	if err != nil {
		b.Fatal(err)
	}
	k := 2 * c.NumSignals()
	g, err := Abstract(c, Options{K: k})
	if err != nil {
		b.Fatal(err)
	}
	fl := faults.OutputUniverse(c)
	b.Run("symbolic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := symb.NewEncoder(c)
			for _, f := range fl {
				e.JustifyFault(k, f)
			}
		}
	})
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fl {
				f := f
				g.ShortestPath(g.Init, func(id int) bool {
					return f.ExcitedIn(c, g.Nodes[id])
				})
			}
		}
	})
}

// BenchmarkTransitionFaults measures the §7 gross-delay extension:
// full transition-fault ATPG (3-phase + exact dropping only).
func BenchmarkTransitionFaults(b *testing.B) {
	for _, ref := range []string{"si/vbe5b", "si/chu150", "si/seq4"} {
		c, err := LoadBenchmark(ref)
		if err != nil {
			b.Fatal(err)
		}
		g, err := Abstract(c, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ref, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res := generate(b, g, TransitionFaults, Options{Seed: 1})
				cov = res.Coverage()
			}
			b.ReportMetric(100*cov, "%cov")
		})
	}
}

// BenchmarkTernarySettle measures one Eichelberger A+B settling pass
// (the inner loop of fault simulation).
func BenchmarkTernarySettle(b *testing.B) {
	c, err := LoadBenchmark("si/master-read")
	if err != nil {
		b.Fatal(err)
	}
	st := sim.TernaryFromPacked(c, c.InitState())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ApplyVector(c, st, uint64(i)&0b1111, nil)
	}
}

// BenchmarkExploreVector measures one exact interleaving exploration
// (the inner loop of CSSG construction) on a racy pattern, reporting
// settling-graph states explored per second.
func BenchmarkExploreVector(b *testing.B) {
	c, err := LoadBenchmark("fig1a")
	if err != nil {
		b.Fatal(err)
	}
	init := c.InitState()
	states := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states += core.AnalyzeVector(c, init, 0b11, core.Options{}).GraphStates
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
}

// serviceBenchTests builds the deterministic bare-pattern test set the
// service benchmarks replay (seed 29, matching the ISCAS scale bench).
func serviceBenchTests(c *Circuit, nseq, cycles int) []Test {
	rng := rand.New(rand.NewSource(29))
	mask := uint64(1)<<uint(c.NumInputs()) - 1
	tests := make([]Test, nseq)
	for i := range tests {
		pats := make([]uint64, cycles)
		for t := range pats {
			pats[t] = rng.Uint64() & mask
		}
		tests[i] = Test{Patterns: pats}
	}
	return tests
}

// BenchmarkServiceShardThroughput measures the distributed coverage
// flow on the largest corpus member: the representative fault classes
// are cut into 1, 2 and 4 shards (FaultSimBatchShard), measured
// concurrently, and the verdicts merged — the in-process equivalent of
// a satpgd coordinator fanning out over N peers.  Sub-benchmark names
// carry shards-N; the detected count must be identical at every shard
// count (the parity assertion at benchmark scale).  Every shard shares
// this process's cores, so queries/sec is the only throughput reported:
// an aggregate patterns/sec summed over shards would grow with the
// shard count on a machine the shards merely take turns on.
func BenchmarkServiceShardThroughput(b *testing.B) {
	f, err := os.Open(filepath.Join("examples", "iscas", "s953.ckt"))
	if err != nil {
		b.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
	}
	c, err := ParseCircuit(f, "s953")
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	tests := serviceBenchTests(c, 32, 12)
	want := -1
	for _, ns := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("s953/shards-%d", ns), func(b *testing.B) {
			var merged *CoverageReport
			for i := 0; i < b.N; i++ {
				reports := make([]*CoverageReport, ns)
				errs := make([]error, ns)
				var wg sync.WaitGroup
				for s := 0; s < ns; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						reports[s], errs[s] = FaultSimBatchShard(c, InputStuckAt, tests, s, ns, Options{})
					}(s)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				if merged, err = MergeCoverageShards(reports); err != nil {
					b.Fatal(err)
				}
			}
			if want < 0 {
				want = merged.Detected
			} else if merged.Detected != want {
				b.Fatalf("%d shards detected %d faults, first variant %d", ns, merged.Detected, want)
			}
			b.ReportMetric(float64(merged.Detected), "detected")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "queries/sec")
			}
		})
	}
}

// BenchmarkServiceConcurrentQueries measures the resident service
// under heavy concurrent load: every iteration launches 1024 in-flight
// identical coverage queries straight into the handler (no sockets),
// the load the load generator (cmd/satpgload) drives over real HTTP.
// Every query interns the same circuit and simulates its own good
// trace.
func BenchmarkServiceConcurrentQueries(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("examples", "iscas", "s27.ckt"))
	if err != nil {
		b.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
	}
	c, err := ParseCircuit(strings.NewReader(string(data)), "s27")
	if err != nil {
		b.Fatal(err)
	}
	const inflight, nseq, cycles = 1024, 64, 8
	rng := rand.New(rand.NewSource(29))
	mask := uint64(1)<<uint(c.NumInputs()) - 1
	wire := make([]service.TestJSON, nseq)
	for i := range wire {
		pats := make([]uint64, cycles)
		for t := range pats {
			pats[t] = rng.Uint64() & mask
		}
		wire[i] = service.TestJSON{Patterns: pats}
	}
	body, err := json.Marshal(&service.CoverageRequest{CircuitText: string(data), Tests: wire})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("s27/inflight-%d", inflight), func(b *testing.B) {
		srv := service.New(service.Config{})
		var patterns, failures int64
		var patMu sync.Mutex
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for q := 0; q < inflight; q++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := httptest.NewRequest("POST", "/v1/coverage", bytes.NewReader(body))
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, req)
					var cr service.CoverageResponse
					patMu.Lock()
					defer patMu.Unlock()
					if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &cr) != nil {
						failures++
						return
					}
					patterns += cr.Patterns
				}()
			}
			wg.Wait()
			if failures > 0 {
				b.Fatalf("%d of %d concurrent queries failed", failures, inflight)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*inflight)/secs, "queries/sec")
			b.ReportMetric(float64(patterns)/secs, "patterns/sec")
		}
	})
}
