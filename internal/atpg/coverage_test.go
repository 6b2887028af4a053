package atpg

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/faults"
)

// The coverage of the full ATPG result, re-measured with the batched
// bit-parallel engine, must be consistent with the flow's own claims:
// every fsim-reported detection must survive the exact-machine replay,
// and every random/sim-phase detection (which was itself established by
// ternary simulation) must be re-found.
func TestCoverageOfMatchesRun(t *testing.T) {
	g := buildCSSG(t, pipe2Src, "pipe2")
	res := runModel(g, faults.InputSA, Options{Seed: 1})
	universe := faults.Universe(g.C, faults.InputSA)

	rep, err := CoverageOfCtx(context.Background(), g.C, universe, res.Tests, CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != len(universe) || len(rep.PerFault) != len(universe) {
		t.Fatalf("report sized %d/%d for %d faults", rep.Total, len(rep.PerFault), len(universe))
	}
	for fi, fc := range rep.PerFault {
		if !fc.Detected {
			continue
		}
		if fc.Cycle == -1 {
			// Observable at reset: the empty test must verify.
			if !Verify(g, universe[fi], Test{}, Options{}) {
				t.Errorf("%s: fsim says reset-observable, exact machine disagrees",
					universe[fi].Describe(g.C))
			}
			continue
		}
		if fc.TestIndex < 0 || fc.TestIndex >= len(res.Tests) {
			t.Fatalf("%s: bad test index %d", universe[fi].Describe(g.C), fc.TestIndex)
		}
		if !Verify(g, universe[fi], res.Tests[fc.TestIndex], Options{}) {
			t.Errorf("%s: fsim detection not confirmed by the exact machine",
				universe[fi].Describe(g.C))
		}
	}
	// Ternary-phase detections must be re-found by the measurement.
	for fi, fr := range res.PerFault {
		if fr.Detected && (fr.Phase == PhaseRandom || fr.Phase == PhaseSim) && !rep.PerFault[fi].Detected {
			t.Errorf("%s: covered in phase %s but missed by CoverageOfCtx",
				fr.Fault.Describe(g.C), fr.Phase)
		}
	}
	if rep.Coverage() <= 0 || rep.Coverage() > 1 {
		t.Fatalf("nonsense coverage %f", rep.Coverage())
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestCoverageOfEmptyTestSet(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	universe := faults.Universe(g.C, faults.OutputSA)
	rep, err := CoverageOfCtx(context.Background(), g.C, universe, nil, CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With no tests, only reset-observable faults may be covered, and
	// each such verdict must agree with the exact machine on the empty
	// test.
	for fi, fc := range rep.PerFault {
		if fc.Detected != Verify(g, universe[fi], Test{}, Options{}) {
			t.Errorf("%s: reset-only verdict %v disagrees with exact machine",
				universe[fi].Describe(g.C), fc.Detected)
		}
		if fc.Detected && (fc.Cycle != -1 || fc.TestIndex != -1) {
			t.Errorf("%s: reset detection must carry cycle=-1, testIndex=-1", universe[fi].Describe(g.C))
		}
	}
}

// The transition universe rides the batched simulator via directional
// overrides; CoverageOfCtx must accept it and agree with the exact
// machine on the reset-only verdicts.
func TestCoverageOfAcceptsTransitionFaults(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	universe := faults.Universe(g.C, faults.Transition)
	rep, err := CoverageOfCtx(context.Background(), g.C, universe, nil, CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != len(universe) {
		t.Fatalf("total %d, want %d", rep.Total, len(universe))
	}
	for fi, fc := range rep.PerFault {
		if fc.Detected != Verify(g, universe[fi], Test{}, Options{}) {
			t.Errorf("%s: reset-only verdict %v disagrees with exact machine",
				universe[fi].Describe(g.C), fc.Detected)
		}
	}
}

// A negative RandomSequences was a silent no-op before batching and
// must stay one (regression: the batched phase once panicked on it).
func TestRunNegativeRandomSequences(t *testing.T) {
	g := buildCSSG(t, invSrc, "inv")
	res := runModel(g, faults.OutputSA, Options{Seed: 1, RandomSequences: -1})
	if res.ByPhase[PhaseRandom] != 0 {
		t.Errorf("negative RandomSequences must disable the random phase: %s", res.Summary())
	}
	if res.Coverage() != 1 {
		t.Errorf("three-phase alone covers the inverter: %s", res.Summary())
	}
}

// The batched random phase must leave the flow deterministic and
// worker-count independent: the whole point of the NoDrop matrix replay.
// GOMAXPROCS sets the fault simulator's worker count.
func TestRunIndependentOfFaultSimWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := buildCSSG(t, pipe2Src, "pipe2")
	runtime.GOMAXPROCS(1)
	a := runModel(g, faults.InputSA, Options{Seed: 1})
	runtime.GOMAXPROCS(8)
	b := runModel(g, faults.InputSA, Options{Seed: 1})
	if a.Covered != b.Covered || len(a.Tests) != len(b.Tests) {
		t.Fatalf("worker count changed the result: %s vs %s", a.Summary(), b.Summary())
	}
	for i := range a.PerFault {
		if a.PerFault[i].Phase != b.PerFault[i].Phase ||
			a.PerFault[i].Detected != b.PerFault[i].Detected ||
			a.PerFault[i].TestIndex != b.PerFault[i].TestIndex {
			t.Fatalf("fault %d differs between worker counts", i)
		}
	}
	for i := range a.Tests {
		if len(a.Tests[i].Patterns) != len(b.Tests[i].Patterns) {
			t.Fatalf("test %d differs between worker counts", i)
		}
		for j := range a.Tests[i].Patterns {
			if a.Tests[i].Patterns[j] != b.Tests[i].Patterns[j] {
				t.Fatalf("test %d pattern %d differs between worker counts", i, j)
			}
		}
	}
}
