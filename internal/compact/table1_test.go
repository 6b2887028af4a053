package compact

// Coverage-preservation property on the paper's Table-1 suite: for every
// compaction mode × benchmark circuit × fault selection (-faults
// sa|transition|both), the compacted program's measured coverage must
// equal the original's EXACTLY — per-fault verdict equality, not just the
// ratio — with both fsim engines (the production engine through
// tester.MeasureCoverage, the full-sweep oracle through its detection
// matrix).  The aggregate ModeAll reduction is additionally pinned to the
// ≥25% acceptance bar on both fault models.

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// measure returns the per-fault verdicts of a program set on one fsim
// engine.
func measure(c *netlist.Circuit, progs []tester.Program, universe []faults.Fault, engine fsim.EngineKind) (tester.CoverageSummary, error) {
	if engine == fsim.EngineEvent {
		return tester.MeasureCoverage(c, progs, universe, 0)
	}
	rows, err := sweepRows(c, progs, universe)
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
	engines := []fsim.EngineKind{fsim.EngineEvent, fsim.EngineSweep}
	modes := []Mode{ModeReverse, ModeDominance, ModeGreedy, ModeAll}
	if testing.Short() {
		suite = suite[:3]
		sels = sels[:1]
		engines = engines[:1]
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
			res, err := atpg.RunUniverseCtx(context.Background(), g, faults.InputSA, universe, atpg.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			progs := make([]tester.Program, len(res.Tests))
			for i, tt := range res.Tests {
				progs[i] = tester.Program{
					Patterns: tt.Patterns, Expected: tt.Expected,
					ResetExpected: g.OutputsOf(g.Init),
				}
			}
			orig := map[fsim.EngineKind]tester.CoverageSummary{}
			for _, eng := range engines {
				sum, err := measure(c, progs, universe, eng)
				if err != nil {
					t.Fatalf("%s sel=%v: %v", bm.Name, sel, err)
				}
				orig[eng] = sum
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
				for _, eng := range engines {
					sum, err := measure(c, cr.Programs, universe, eng)
					if err != nil {
						t.Fatalf("%s sel=%v mode=%s: %v", bm.Name, sel, mode, err)
					}
					ref := orig[eng]
					if !sum.VerdictsEqual(ref) {
						for fi := range ref.PerFault {
							if sum.PerFault[fi] != ref.PerFault[fi] {
								t.Errorf("%s sel=%v mode=%s engine=%s: fault %s verdict flipped %v -> %v",
									bm.Name, sel, mode, eng,
									universe[fi].Describe(c), ref.PerFault[fi], sum.PerFault[fi])
							}
						}
						t.Fatalf("%s sel=%v mode=%s engine=%s: coverage not preserved (%d/%d vs %d/%d)",
							bm.Name, sel, mode, eng,
							sum.Detected, sum.Total, ref.Detected, ref.Total)
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
