package compact

// Coverage-preservation property on the paper's Table-1 suite: for
// every compaction mode × benchmark circuit × fault selection
// (-faults sa|transition|both), the compacted program's measured
// coverage must equal the original's EXACTLY — per-fault verdict
// equality, not just the ratio — at every lane width and with both
// fsim engines (the production engine through tester.MeasureCoverage,
// the full-sweep oracle through its detection matrix).  The aggregate
// ModeAll reduction is additionally pinned to the ≥25% acceptance bar
// on both fault models.

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// measure returns the per-fault verdicts of a program set at one lane
// width on one fsim engine.
func measure(c *netlist.Circuit, progs []tester.Program, universe []faults.Fault, lanes int, engine fsim.EngineKind) (tester.CoverageSummary, error) {
	if engine == fsim.EngineEvent {
		return tester.MeasureCoverage(c, progs, universe, 0, lanes)
	}
	rows, err := sweepRows(c, progs, universe, lanes)
	if err != nil {
		return tester.CoverageSummary{}, err
	}
	sum := tester.CoverageSummary{Total: len(universe), PerFault: make([]bool, len(universe))}
	for fi, row := range rows {
		if row.Any() {
			sum.PerFault[fi] = true
			sum.Detected++
		}
	}
	return sum, nil
}

func TestCompactionPreservesCoverageTable1(t *testing.T) {
	suite := circuits.SpeedIndependent()
	sels := []faults.Selection{faults.SelStuckAt, faults.SelTransition, faults.SelBoth}
	laneWidths := []int{64, 256}
	engines := []fsim.EngineKind{fsim.EngineEvent, fsim.EngineSweep}
	modes := []Mode{ModeReverse, ModeDominance, ModeGreedy, ModeAll}
	if testing.Short() {
		suite = suite[:3]
		sels = sels[:1]
		laneWidths = laneWidths[:1]
		engines = engines[:1]
	}
	type measureKey struct {
		lanes  int
		engine fsim.EngineKind
	}
	totalBefore := map[faults.Selection]int{}
	totalAfter := map[faults.Selection]int{}
	for _, bm := range suite {
		c := bm.Circuit
		g, err := core.Build(c, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		for _, sel := range sels {
			universe := faults.SelectUniverse(c, faults.InputSA, sel)
			res := atpg.RunUniverse(g, faults.InputSA, universe, atpg.Options{Seed: 1})
			progs := make([]tester.Program, len(res.Tests))
			for i, tt := range res.Tests {
				progs[i] = tester.Program{
					Patterns: tt.Patterns, Expected: tt.Expected,
					ResetExpected: g.OutputsOf(g.Init),
				}
			}
			orig := map[measureKey]tester.CoverageSummary{}
			for _, lanes := range laneWidths {
				for _, eng := range engines {
					sum, err := measure(c, progs, universe, lanes, eng)
					if err != nil {
						t.Fatalf("%s sel=%v: %v", bm.Name, sel, err)
					}
					orig[measureKey{lanes, eng}] = sum
				}
			}
			for _, mode := range modes {
				cr, err := Compact(c, progs, universe, mode, Options{})
				if err != nil {
					t.Fatalf("%s sel=%v mode=%s: %v", bm.Name, sel, mode, err)
				}
				if cr.After > cr.Before {
					t.Fatalf("%s sel=%v mode=%s: compaction grew the program: %d -> %d",
						bm.Name, sel, mode, cr.Before, cr.After)
				}
				for _, lanes := range laneWidths {
					for _, eng := range engines {
						sum, err := measure(c, cr.Programs, universe, lanes, eng)
						if err != nil {
							t.Fatalf("%s sel=%v mode=%s: %v", bm.Name, sel, mode, err)
						}
						ref := orig[measureKey{lanes, eng}]
						if !sum.VerdictsEqual(ref) {
							for fi := range ref.PerFault {
								if sum.PerFault[fi] != ref.PerFault[fi] {
									t.Errorf("%s sel=%v mode=%s lanes=%d engine=%s: fault %s verdict flipped %v -> %v",
										bm.Name, sel, mode, lanes, eng,
										universe[fi].Describe(c), ref.PerFault[fi], sum.PerFault[fi])
								}
							}
							t.Fatalf("%s sel=%v mode=%s lanes=%d engine=%s: coverage not preserved (%d/%d vs %d/%d)",
								bm.Name, sel, mode, lanes, eng,
								sum.Detected, sum.Total, ref.Detected, ref.Total)
						}
					}
				}
				if mode == ModeAll {
					totalBefore[sel] += cr.Before
					totalAfter[sel] += cr.After
					// Re-compacting the compacted program must be a no-op
					// (the fuzz target asserts this on random circuits; the
					// real Table-1 programs are pinned here).
					again, err := Compact(c, cr.Programs, universe, mode, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !programsEqual(again.Programs, cr.Programs) {
						t.Errorf("%s sel=%v: ModeAll not idempotent (%d -> %d tests)",
							bm.Name, sel, len(cr.Programs), len(again.Programs))
					}
				}
			}
		}
	}
	for _, sel := range sels {
		before, after := totalBefore[sel], totalAfter[sel]
		if before == 0 {
			t.Fatalf("sel=%v: no tests generated; property exercised nothing", sel)
		}
		red := 1 - float64(after)/float64(before)
		t.Logf("sel=%v: ModeAll %d -> %d tests across the suite (-%.1f%%)", sel, before, after, 100*red)
		// Acceptance bar: ≥25% program-size reduction on the Table-1
		// suite for both fault models, at bit-identical coverage (the
		// equality above).  Short mode runs a subset, so the bar is only
		// enforced on the full suite.
		if !testing.Short() && red < 0.25 {
			t.Errorf("sel=%v: ModeAll reduced the suite program by only %.1f%%, want >= 25%%", sel, 100*red)
		}
	}
}
