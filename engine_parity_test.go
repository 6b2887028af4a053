package satpg

import (
	"testing"

	"repro/internal/fsim"
)

// The facade measures coverage on the production event engine only;
// the full-sweep engine lives on inside fsim as the differential
// oracle.  The root-package parity suites therefore drive fsim
// directly, on the test sets the whole flow generates.

// engineVerdicts measures tests on one fsim engine with
// FaultSimBatch's semantics: reset observation checked, each test
// judged against its declared responses (generated tests always carry
// them), and each fault credited to its first detection.
func engineVerdicts(t *testing.T, c *Circuit, model FaultModel, sel FaultSelection, tests []Test, engine fsim.EngineKind) ([]FaultCoverage, fsim.Stats) {
	t.Helper()
	universe := SelectedUniverse(c, model, sel)
	s, err := fsim.New(c, universe, fsim.Options{Engine: engine, CheckReset: true})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	seqs := make([][]uint64, len(tests))
	expected := make([][]uint64, len(tests))
	for i, tst := range tests {
		seqs[i], expected[i] = tst.Patterns, tst.Expected
	}
	verdicts := make([]FaultCoverage, len(universe))
	for i, f := range universe {
		verdicts[i] = FaultCoverage{Fault: f, TestIndex: -1, Cycle: -1}
	}
	err = s.SimulateSequences(seqs, expected, nil, func(base int, br *fsim.BatchResult) {
		for _, d := range br.Detections {
			v := &verdicts[d.Fault]
			if v.Detected {
				continue
			}
			v.Detected, v.Cycle = true, d.Cycle
			if d.Cycle >= 0 {
				v.TestIndex = base + d.Lane
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return verdicts, s.Stats()
}

// crossEngineCompare measures the tests on both engines and requires
// identical per-fault verdicts; it returns the event engine's verdicts
// and both engines' work counters.
func crossEngineCompare(t *testing.T, c *Circuit, model FaultModel, sel FaultSelection, tests []Test) (ev []FaultCoverage, evStats, swStats fsim.Stats) {
	t.Helper()
	ev, evStats = engineVerdicts(t, c, model, sel, tests, fsim.EngineEvent)
	sw, swStats := engineVerdicts(t, c, model, sel, tests, fsim.EngineSweep)
	for fi := range ev {
		e, s := ev[fi], sw[fi]
		if e.Detected != s.Detected || e.TestIndex != s.TestIndex || e.Cycle != s.Cycle {
			t.Errorf("%s %v fault %s: event {det=%v test=%d cyc=%d} sweep {det=%v test=%d cyc=%d}",
				c.Name, model, e.Fault.Describe(c),
				e.Detected, e.TestIndex, e.Cycle, s.Detected, s.TestIndex, s.Cycle)
		}
	}
	return ev, evStats, swStats
}

// TestEventEngineParityOnSuite pins the event-driven cone-limited
// engine to the full-sweep oracle on the Table-1 benchmarks: for both
// fault models, the engines must report identical
// per-fault verdicts on the generated tests, and the event engine must
// not do more gate-evaluation work than the sweeps.
func TestEventEngineParityOnSuite(t *testing.T) {
	suite := SpeedIndependentSuite()
	if testing.Short() {
		suite = suite[:3]
	}
	var evEvals, swEvals int64
	for _, bm := range suite {
		_, res := runCSSG(t, bm.Circuit, InputStuckAt, Options{Seed: 1})
		for _, model := range []FaultModel{OutputStuckAt, InputStuckAt} {
			_, ev, sw := crossEngineCompare(t, bm.Circuit, model, SelectStuckAt, res.Tests)
			evEvals += ev.GateEvals
			swEvals += sw.GateEvals
		}
	}
	if evEvals >= swEvals {
		t.Errorf("event engine did not reduce suite-wide gate evaluations: %d vs %d", evEvals, swEvals)
	}
	t.Logf("suite gate evals: event %d, sweep %d (%.1f%%)", evEvals, swEvals,
		100*float64(evEvals)/float64(swEvals))
}
