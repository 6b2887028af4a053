package satpg

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsim"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// The multi-word differential suite: circuits past the 64-signal
// single-word ceiling must behave bit-identically to the scalar ternary
// oracle, across both fsim engines and both lane widths,
// and a ≤64-signal circuit pushed through the multi-word paths (via
// SetMinStateWords) must reproduce its single-word verdicts exactly.

func loadCorpus(t *testing.T, name string) *Circuit {
	t.Helper()
	path := filepath.Join("examples", "iscas", name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("corpus %s: %v (regenerate with `go run ./examples/iscas`)", name, err)
	}
	defer f.Close()
	c, err := ParseCircuit(f, path)
	if err != nil {
		t.Fatalf("corpus %s: %v", name, err)
	}
	return c
}

// TestISCASCorpusLoads pins the committed corpus: the files must parse,
// validate, and land on their intended packed-state word counts.
func TestISCASCorpusLoads(t *testing.T) {
	want := []struct {
		file           string
		signals, words int
	}{
		{"s27.ckt", 29, 1},
		{"s349.ckt", 363, 6},
		{"s953.ckt", 989, 16},
	}
	for _, w := range want {
		c := loadCorpus(t, w.file)
		if c.NumSignals() != w.signals || c.StateWords() != w.words {
			t.Errorf("%s: %d signals in %d words, want %d in %d",
				w.file, c.NumSignals(), c.StateWords(), w.signals, w.words)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", w.file, err)
		}
	}
}

// scalarOracleDetects replays the whole test set (and the reset
// observation) against one fault on the scalar ternary machine — the
// size-agnostic ground truth the batched engines must reproduce.
func scalarOracleDetects(c *Circuit, f Fault, tests []Test) bool {
	goodReset := sim.Machine{C: c}.InitState()
	badReset := sim.Machine{C: c, Fault: &f}.InitState()
	for _, s := range c.Outputs {
		g, b := goodReset[s], badReset[s]
		if g.IsDefinite() && b.IsDefinite() && g != b {
			return true
		}
	}
	for _, tst := range tests {
		if VerifyTestDirect(c, f, tst) {
			return true
		}
	}
	return false
}

// TestDirectFlowOracleOnCorpus runs the direct flow on the corpus and
// checks (a) every kept test and credited detection replays on the
// scalar oracle, (b) event and sweep engines agree verdict for verdict
// at both lane widths on the generated tests.
func TestDirectFlowOracleOnCorpus(t *testing.T) {
	// The package's three longest suites — this one,
	// TestPodemParityCSSGFlow and TestPodemParityDirectFlow — run in
	// parallel so the package stays inside go test's default timeout.
	t.Parallel()
	files := []string{"s27.ckt", "s349.ckt"}
	if !testing.Short() {
		files = append(files, "s953.ckt")
	}
	for _, file := range files {
		c := loadCorpus(t, file)
		opts := Options{Seed: 1, RandomSequences: 48, RandomLength: 16}
		if file == "s953.ckt" {
			opts.RandomSequences, opts.RandomLength = 24, 12
		}
		res := runDirect(t, c, InputStuckAt, opts)
		if res.Covered == 0 || len(res.Tests) == 0 {
			t.Fatalf("%s: direct flow produced no detections (%d tests)", file, len(res.Tests))
		}
		if err := ValidateDirect(c, res); err != nil {
			t.Errorf("%s: %v", file, err)
		}
		lanes := []int{64, 256}
		if file == "s953.ckt" {
			lanes = []int{256}
		}
		for _, lw := range lanes {
			crossEngineCompare(t, c, InputStuckAt, SelectStuckAt, res.Tests, lw)
		}
	}
}

// TestMultiWordEnginesMatchScalarOracle cross-validates the multi-word
// engines on random feedback circuits at 65–300 signals: both engines
// at every lane width must agree with each other on every fault, and
// with the scalar ternary machine on a sampled subset.
func TestMultiWordEnginesMatchScalarOracle(t *testing.T) {
	type band struct{ minGates, maxGates int }
	bands := []band{{70, 90}, {120, 150}, {260, 290}}
	if testing.Short() {
		bands = bands[:1]
	}
	for bi, b := range bands {
		rng := rand.New(rand.NewSource(int64(100 + bi)))
		c, ok := randckt.New(rng, randckt.Config{
			MinInputs: 4, MaxInputs: 6,
			MinGates: b.minGates, MaxGates: b.maxGates,
		})
		if !ok {
			t.Fatalf("band %d: no stable random circuit", bi)
		}
		if c.NumSignals() <= MaxExplicitSignals {
			t.Fatalf("band %d: circuit %s has only %d signals", bi, c.Name, c.NumSignals())
		}
		res := runDirect(t, c, InputStuckAt, Options{Seed: 7, RandomSequences: 32, RandomLength: 12})
		t.Logf("band %d: %s, %d signals (%d words), %d tests, cov %d/%d",
			bi, c.Name, c.NumSignals(), c.StateWords(), len(res.Tests), res.Covered, res.Total)
		var ev []FaultCoverage
		for _, lw := range []int{64, 256} {
			ev, _, _ = crossEngineCompare(t, c, InputStuckAt, SelectStuckAt, res.Tests, lw)
		}
		// Scalar spot-check: every 7th fault's verdict must match a full
		// replay on the ternary machine.
		for fi := 0; fi < len(ev); fi += 7 {
			fc := ev[fi]
			if got := scalarOracleDetects(c, fc.Fault, res.Tests); got != fc.Detected {
				t.Errorf("band %d fault %s: fsim det=%v, scalar oracle det=%v",
					bi, fc.Fault.Describe(c), fc.Detected, got)
			}
		}
	}
}

// TestSingleVsMultiWordBitEquality pushes the Table-1 suite through the
// multi-word engine paths (SetMinStateWords forces two state words on
// circuits that fit one) and requires verdicts bit-identical to the
// single-word fast path, for both fault models and both engines.
func TestSingleVsMultiWordBitEquality(t *testing.T) {
	suite := SpeedIndependentSuite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, bm := range suite {
		_, res := runCSSG(t, bm.Circuit, InputStuckAt, Options{Seed: 1})
		forced := bm.Circuit.Clone()
		forced.SetMinStateWords(2)
		for _, model := range []FaultModel{OutputStuckAt, InputStuckAt} {
			for _, engine := range []fsim.EngineKind{fsim.EngineEvent, fsim.EngineSweep} {
				one, _ := engineVerdicts(t, bm.Circuit, model, SelectStuckAt, res.Tests, 64, engine)
				two, _ := engineVerdicts(t, forced, model, SelectStuckAt, res.Tests, 64, engine)
				for fi := range one {
					a, b := one[fi], two[fi]
					if a.Detected != b.Detected || a.TestIndex != b.TestIndex || a.Cycle != b.Cycle {
						t.Errorf("%s %v %v fault %s: 1-word {det=%v test=%d cyc=%d} 2-word {det=%v test=%d cyc=%d}",
							bm.Name, model, engine, a.Fault.Describe(bm.Circuit),
							a.Detected, a.TestIndex, a.Cycle, b.Detected, b.TestIndex, b.Cycle)
					}
				}
			}
		}
		// The direct flow must be equally indifferent to the word count.
		d1 := runDirect(t, bm.Circuit, InputStuckAt, Options{Seed: 3, RandomSequences: 16, RandomLength: 8})
		d2 := runDirect(t, forced, InputStuckAt, Options{Seed: 3, RandomSequences: 16, RandomLength: 8})
		if d1.Covered != d2.Covered || len(d1.Tests) != len(d2.Tests) {
			t.Fatalf("%s: direct flow diverged across word counts: cov %d/%d tests %d vs cov %d/%d tests %d",
				bm.Name, d1.Covered, d1.Total, len(d1.Tests), d2.Covered, d2.Total, len(d2.Tests))
		}
		for i := range d1.Tests {
			for j := range d1.Tests[i].Patterns {
				if d1.Tests[i].Patterns[j] != d2.Tests[i].Patterns[j] ||
					d1.Tests[i].Expected[j] != d2.Tests[i].Expected[j] {
					t.Fatalf("%s: direct test %d cycle %d differs across word counts", bm.Name, i, j)
				}
			}
		}
	}
}
