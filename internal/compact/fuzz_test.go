package compact

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/randckt"
	"repro/internal/tester"
)

// FuzzCompact drives every compaction mode over random cyclic circuits
// and random tester programs, asserting the three contract properties:
// compaction never increases program size, never changes a single
// per-fault coverage verdict, and is idempotent —
// compact(compact(p)) == compact(p), program for program.
func FuzzCompact(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(0))
	f.Add(int64(7), uint8(20), uint8(6), uint8(1))
	f.Add(int64(42), uint8(3), uint8(2), uint8(2))
	f.Add(int64(1234), uint8(70), uint8(3), uint8(0)) // >64 tests: multi-batch matrix
	f.Add(int64(99), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nTests, maxLen, selByte uint8) {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			t.Skip("no stable circuit for this seed")
		}
		n := int(nTests%80) + 1
		ml := int(maxLen%6) + 1
		sel := faults.Selection(selByte % 3)
		universe := faults.SelectUniverse(c, faults.InputSA, sel)
		progs := randPrograms(rng, c, n, ml)
		orig, err := tester.MeasureCoverage(c, progs, universe)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeNone, ModeReverse, ModeDominance, ModeGreedy, ModeAll} {
			cr, err := Compact(c, progs, universe, mode, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cr.After > cr.Before || len(cr.Programs) != cr.After {
				t.Fatalf("mode %s: size grew: %d -> %d", mode, cr.Before, cr.After)
			}
			got, err := tester.MeasureCoverage(c, cr.Programs, universe)
			if err != nil {
				t.Fatal(err)
			}
			if !got.VerdictsEqual(orig) {
				t.Fatalf("mode %s: coverage changed: %d/%d vs %d/%d",
					mode, got.Detected, got.Total, orig.Detected, orig.Total)
			}
			again, err := Compact(c, cr.Programs, universe, mode, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !programsEqual(again.Programs, cr.Programs) {
				t.Fatalf("mode %s: not idempotent: %d -> %d tests",
					mode, len(cr.Programs), len(again.Programs))
			}
		}
	})
}
