package fsim

// Transition-fault differential tests: the directional-override
// injection (slow-to-rise: the output may only fall, and dually) must
// reproduce, bit for bit, the materialised-circuit serial oracle —
// faults.Apply rewrites the faulty gate into a self-dependent f∧self /
// f∨self table and the scalar ternary machine simulates the copy one
// fault × one sequence at a time.  The override path never builds a
// circuit copy, which is the whole point; these tests are what make
// that shortcut trustworthy, across every lane width, both engines,
// with and without dropping, on random cyclic circuits and on the
// Table-1 suite.

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// materialisedMatrix is the serial differential oracle: for every
// fault, materialise the circuit copy (faults.Apply), replay each
// sequence from reset on the scalar ternary machine, and record the
// lanes whose outputs are guaranteed to differ from the good machine —
// at the reset response (reported uniformly across lanes, as the
// engine does) or at some cycle.
func materialisedMatrix(c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64) [][]bool {
	good := sim.Machine{C: c}
	goodInit := good.InitState()
	goodStates := make([][]logic.Vec, len(seqs))
	for l, seq := range seqs {
		st := goodInit
		goodStates[l] = make([]logic.Vec, len(seq))
		for t, p := range seq {
			st = good.Step(st, p)
			goodStates[l][t] = st
		}
	}
	mx := make([][]bool, len(universe))
	for fi, f := range universe {
		fm := sim.Machine{C: faults.Apply(c, f)}
		fInit := fm.InitState()
		mx[fi] = make([]bool, len(seqs))
		resetDet := scalarDetects(c, goodInit, fInit)
		for l, seq := range seqs {
			if resetDet {
				mx[fi][l] = true
			}
			st := fInit
			for t, p := range seq {
				st = fm.Step(st, p)
				if scalarDetects(c, goodStates[l][t], st) {
					mx[fi][l] = true
				}
			}
		}
	}
	return mx
}

// engineMatrix collects the fault × sequence detection matrix of the
// override-based engine (NoDrop, CheckReset) for one width and engine.
func engineMatrix(t *testing.T, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64, lanes int, engine EngineKind, noCollapse bool) [][]bool {
	t.Helper()
	s, err := New(c, universe, Options{
		Workers: 2, Lanes: lanes, Engine: engine,
		NoDrop: true, CheckReset: true, NoCollapse: noCollapse,
	})
	if err != nil {
		t.Fatal(err)
	}
	mx := make([][]bool, len(universe))
	for fi := range mx {
		mx[fi] = make([]bool, len(seqs))
	}
	err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
		for fi := range universe {
			for l := 0; base+l < len(seqs); l++ {
				if br.Lanes[fi].Has(l) {
					mx[fi][base+l] = true
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

func randSeqs(rng *rand.Rand, m, nseq, cycles int) [][]uint64 {
	seqs := make([][]uint64, nseq)
	for l := range seqs {
		seq := make([]uint64, cycles)
		for tc := range seq {
			seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
		}
		seqs[l] = seq
	}
	return seqs
}

// TestTransitionDifferentialAgainstMaterialised pins the override-based
// simulation of the full TransitionUniverse to the materialised-circuit
// serial oracle on seeded random cyclic circuits (C elements included,
// whose self input exercises the monotone-in-self argument), at every
// lane width, on both engines, collapsed and uncollapsed.
func TestTransitionDifferentialAgainstMaterialised(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	const nseq, cycles = 80, 6 // >64 sequences so wide words really fill
	tried := 0
	for seed := int64(1); tried < seeds && seed < int64(20*seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		seqs := randSeqs(rng, c.NumInputs(), nseq, cycles)
		universe := faults.TransitionUniverse(c)
		want := materialisedMatrix(c, universe, seqs)

		for _, lanes := range []int{64, 256} {
			for _, engine := range []EngineKind{EngineEvent, EngineSweep} {
				for _, noCollapse := range []bool{false, true} {
					got := engineMatrix(t, c, universe, seqs, lanes, engine, noCollapse)
					for fi := range universe {
						for l := 0; l < nseq; l++ {
							if got[fi][l] != want[fi][l] {
								t.Fatalf("seed %d fault %s lanes=%d engine=%s noCollapse=%v: sequence %d detection %v, oracle %v",
									seed, universe[fi].Describe(c), lanes, engine, noCollapse, l, got[fi][l], want[fi][l])
							}
						}
					}
				}
			}
		}

		// Dropping only skips redundant work, never changes a verdict.
		for _, engine := range []EngineKind{EngineEvent, EngineSweep} {
			s, err := New(c, universe, Options{Engine: engine, CheckReset: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SimulateSequences(seqs, nil, nil, func(int, *BatchResult) {}); err != nil {
				t.Fatal(err)
			}
			for fi := range universe {
				wantDet := false
				for l := range want[fi] {
					if want[fi][l] {
						wantDet = true
						break
					}
				}
				if s.Detected(fi) != wantDet {
					t.Fatalf("seed %d fault %s engine=%s: dropped run detected=%v, oracle %v",
						seed, universe[fi].Describe(c), engine, s.Detected(fi), wantDet)
				}
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; transition differential exercised nothing")
	}
	t.Logf("transition-differential-tested %d random circuits", tried)
}

// TestTransitionSuiteParity runs the combined stuck-at + transition
// universe over the Table-1 benchmark circuits: the override engines
// must match the materialised oracle exactly, and event must match
// sweep at every width.
func TestTransitionSuiteParity(t *testing.T) {
	suite := circuits.SpeedIndependent()
	if testing.Short() {
		suite = suite[:3]
	}
	const nseq, cycles = 48, 10
	rng := rand.New(rand.NewSource(99))
	for _, bm := range suite {
		c := bm.Circuit
		seqs := randSeqs(rng, c.NumInputs(), nseq, cycles)
		universe := append(faults.InputUniverse(c), faults.TransitionUniverse(c)...)
		want := materialisedMatrix(c, universe, seqs)
		for _, lanes := range []int{64, 256} {
			for _, engine := range []EngineKind{EngineEvent, EngineSweep} {
				got := engineMatrix(t, c, universe, seqs, lanes, engine, false)
				for fi := range universe {
					for l := 0; l < nseq; l++ {
						if got[fi][l] != want[fi][l] {
							t.Fatalf("%s fault %s lanes=%d engine=%s: sequence %d detection %v, oracle %v",
								bm.Name, universe[fi].Describe(c), lanes, engine, l, got[fi][l], want[fi][l])
						}
					}
				}
			}
		}
	}
}
