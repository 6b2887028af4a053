package compact

// Differential property: the detection matrix from the batched fsim
// pass must be bit-identical to per-test × per-fault verdicts of the
// scalar ternary machine (sim.Machine) — reset comparison included —
// on seeded random cyclic circuits, with both fsim engines.  This is the matrix analogue of internal/fsim's
// differential suites, pushed up to the program/compaction layer.

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
	"repro/internal/tester"
)

// definiteDiffers mirrors the engine's declared-expectation detection
// rule on a scalar state: some primary output definite and opposite
// the program's declared bit.
func definiteDiffers(v logic.Vec, declared uint64) bool {
	for j, b := range v {
		if b.IsDefinite() && (b == logic.One) != (declared>>uint(j)&1 == 1) {
			return true
		}
	}
	return false
}

// scalarMatrix computes the reference detection matrix one fault and
// one program at a time on the scalar ternary machine.
func scalarMatrix(c *netlist.Circuit, universe []faults.Fault, progs []tester.Program) [][]bool {
	mx := make([][]bool, len(universe))
	for fi := range universe {
		mx[fi] = make([]bool, len(progs))
		fm := sim.Machine{C: c, Fault: &universe[fi]}
		for ti, p := range progs {
			st := fm.InitState()
			det := definiteDiffers(fm.Outputs(st), p.ResetExpected)
			for cyc := 0; cyc < len(p.Patterns) && !det; cyc++ {
				st = fm.Step(st, p.Patterns[cyc])
				det = definiteDiffers(fm.Outputs(st), p.Expected[cyc])
			}
			mx[fi][ti] = det
		}
	}
	return mx
}

// sweepRows computes the detection matrix of the programs on fsim's
// full-sweep oracle engine, with the options BuildMatrix passes.  Only
// fsim.Options selects that engine, so the oracle legs of the
// compaction suites call fsim directly.
func sweepRows(c *netlist.Circuit, progs []tester.Program, universe []faults.Fault) ([]fsim.LaneMask, error) {
	seqs := make([][]uint64, len(progs))
	expected := make([][]uint64, len(progs))
	resetExp := make([]uint64, len(progs))
	for i, p := range progs {
		seqs[i], expected[i], resetExp[i] = p.Patterns, p.Expected, p.ResetExpected
	}
	rows, _, err := fsim.DetectionMatrix(c, universe, seqs, expected, resetExp,
		fsim.Options{Engine: fsim.EngineSweep, CheckReset: true})
	return rows, err
}

func TestMatrixDifferentialAgainstScalar(t *testing.T) {
	engines := []fsim.EngineKind{fsim.EngineEvent, fsim.EngineSweep}
	seeds := 20
	nProgs := 80 // spans two 64-lane batches, exercises the base-shifted fold
	if testing.Short() {
		seeds = 5
		engines = engines[:1]
	}
	tried := 0
	for seed := int64(1); tried < seeds && seed < int64(20*seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		universe := append(append(faults.OutputUniverse(c), faults.InputUniverse(c)...),
			faults.TransitionUniverse(c)...)
		progs := randPrograms(rng, c, nProgs, 5)
		ref := scalarMatrix(c, universe, progs)
		for _, engine := range engines {
			var rows []fsim.LaneMask
			if engine == fsim.EngineSweep {
				var err error
				if rows, err = sweepRows(c, progs, universe); err != nil {
					t.Fatal(err)
				}
			} else {
				mx, err := BuildMatrix(c, progs, universe, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if mx.NumTests != len(progs) {
					t.Fatalf("seed %d: NumTests %d, want %d", seed, mx.NumTests, len(progs))
				}
				rows = mx.Rows
			}
			for fi := range universe {
				for ti := range progs {
					if rows[fi].Has(ti) != ref[fi][ti] {
						t.Fatalf("seed %d engine=%s: fault %s × test %d: matrix %v, scalar %v",
							seed, engine, universe[fi].Describe(c), ti,
							rows[fi].Has(ti), ref[fi][ti])
					}
				}
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; matrix differential exercised nothing")
	}
	t.Logf("matrix-differential-tested %d random circuits", tried)
}
