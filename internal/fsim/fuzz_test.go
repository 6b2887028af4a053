package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// FuzzEventEngineVsScalar pins the fault simulator the generation flows
// run — the default event engine in NoDrop mode — to the scalar ternary
// machine on random cyclic circuits: for every fault of the output
// stuck-at, input stuck-at and transition universes and every
// sequence, the engine's lane bit must equal the scalar verdict
// (some cycle shows a definite output opposite the good machine's).
// The sequences are ragged, and the size bytes pick their count and
// their longest length.
func FuzzEventEngineVsScalar(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(6))
	f.Add(int64(7), uint8(70), uint8(3)) // >64 sequences: two batches
	f.Add(int64(42), uint8(1), uint8(1))
	f.Add(int64(99), uint8(20), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, nSeqs, maxLen uint8) {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			t.Skip("no stable circuit for this seed")
		}
		m := c.NumInputs()
		seqs := make([][]uint64, int(nSeqs%80)+1)
		for l := range seqs {
			seqs[l] = make([]uint64, rng.Intn(int(maxLen%12)+2))
			for tc := range seqs[l] {
				seqs[l][tc] = rng.Uint64() & (1<<uint(m) - 1)
			}
		}
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)
		universe = append(universe, faults.TransitionUniverse(c)...)

		s, err := New(c, universe, Options{Workers: 2, NoDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]bool, len(universe))
		for fi := range got {
			got[fi] = make([]bool, len(seqs))
		}
		err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
			for fi := range universe {
				for l := 0; base+l < len(seqs); l++ {
					got[fi][base+l] = br.Lanes[fi]>>uint(l)&1 == 1
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		good := sim.Machine{C: c}
		goodStates := make([][]logic.Vec, len(seqs))
		for l, seq := range seqs {
			st := good.InitState()
			for _, p := range seq {
				st = good.Step(st, p)
				goodStates[l] = append(goodStates[l], st)
			}
		}
		for fi := range universe {
			fm := sim.Machine{C: c, Fault: &universe[fi]}
			init := fm.InitState()
			for l, seq := range seqs {
				want, st := false, init
				for tc, p := range seq {
					st = fm.Step(st, p)
					want = want || scalarDetects(c, goodStates[l][tc], st)
				}
				if got[fi][l] != want {
					t.Fatalf("seed %d fault %s sequence %d: engine says %v, scalar machine %v",
						seed, universe[fi].Describe(c), l, got[fi][l], want)
				}
			}
		}
	})
}
