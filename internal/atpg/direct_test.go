package atpg

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// TestRunDirectWorkerCountInvariance pins the determinism contract of
// the parallel walk pipeline: for a fixed seed the emitted test program
// and the per-fault verdicts are byte-identical no matter how many
// workers generate walks, because each walk's randomness derives from
// (seed, index) alone and selection replays chunks in index order.
// GOMAXPROCS sets the worker count of the walks and the fault simulator.
func TestRunDirectWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(77))
	tried := 0
	for tried < 3 {
		c, ok := randckt.New(rng, randckt.Config{MinGates: 24, MaxGates: 48})
		if !ok {
			continue
		}
		tried++
		universe := faults.InputUniverse(c)
		run := func(workers int) *Result {
			runtime.GOMAXPROCS(workers)
			res, err := RunDirectCtx(context.Background(), c, faults.InputSA, universe, Options{
				Seed: 11, RandomSequences: 48, RandomLength: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base := run(1)
		for _, workers := range []int{2, 4, 7} {
			got := run(workers)
			if len(got.Tests) != len(base.Tests) {
				t.Fatalf("%s workers=%d: %d tests vs %d at workers=1",
					c.Name, workers, len(got.Tests), len(base.Tests))
			}
			for i := range base.Tests {
				a, b := base.Tests[i], got.Tests[i]
				if len(a.Patterns) != len(b.Patterns) {
					t.Fatalf("%s workers=%d test %d: length differs", c.Name, workers, i)
				}
				for j := range a.Patterns {
					if a.Patterns[j] != b.Patterns[j] || a.Expected[j] != b.Expected[j] {
						t.Fatalf("%s workers=%d test %d cycle %d: program diverged",
							c.Name, workers, i, j)
					}
				}
			}
			for fi := range base.PerFault {
				a, b := base.PerFault[fi], got.PerFault[fi]
				if a.Detected != b.Detected || a.TestIndex != b.TestIndex {
					t.Fatalf("%s workers=%d fault %s: {det=%v test=%d} vs {det=%v test=%d}",
						c.Name, workers, a.Fault.Describe(c),
						b.Detected, b.TestIndex, a.Detected, a.TestIndex)
				}
			}
		}
		if base.Covered == 0 {
			t.Errorf("%s: direct flow covered nothing; invariance test exercised little", c.Name)
		}
		if base.FaultSim.Patterns == 0 || base.FaultSim.GateEvals == 0 {
			t.Errorf("%s: FaultSim stats not recorded: %+v", c.Name, base.FaultSim)
		}
	}
}

// TestDirectWalkScratchEquivalence checks that the buffer-reusing walk
// generator produces exactly the sequence a buffer-free replay of the
// same rng decisions would: every emitted cycle settles definitely on
// the package-level ApplyVector and matches the recorded outputs.
func TestDirectWalkScratchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tried := 0
	for tried < 5 {
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		reset := sim.Machine{C: c}.InitState()
		var buf sim.SettleBuf
		for i := 0; i < 4; i++ {
			wrng := rand.New(rand.NewSource(walkSeed(13, i)))
			w := directWalk(c, reset, wrng, 8, &buf)
			if !VerifyDirectGood(c, w) {
				t.Fatalf("%s walk %d: scratch-built walk fails the scalar replay oracle", c.Name, i)
			}
		}
	}
}
