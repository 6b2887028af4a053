package fsim

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// loadCorpus parses one of the committed ISCAS corpus circuits.
func loadCorpus(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "iscas", name+".ckt"))
	if err != nil {
		t.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
	}
	defer f.Close()
	c, err := netlist.Parse(f, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScreenAllocations pins the heap allocations of the generation
// flows' screen: one 12-cycle test simulated as a one-lane NoDrop batch
// against its declared responses, on a Simulator whose good trace is
// already cached.  What is left is the batch result itself: a detected
// class costs no mask allocation, and the live-unit filter and the
// detection lists reuse the Simulator's scratch.  One worker keeps the
// count exact; with more, the pool's goroutines and work stealing add
// bookkeeping that varies from batch to batch.
func TestScreenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would be counted")
	}
	for _, tc := range []struct {
		name string
		max  float64
	}{
		{"s27", 5},
		{"s349", 5},
		{"s953", 5},
	} {
		c := loadCorpus(t, tc.name)
		seqs := seqsFor(rand.New(rand.NewSource(1)), c, 1, 12)
		expected, _ := goodResponses(c, seqs)
		s, err := New(c, faults.InputUniverse(c), Options{Workers: 1, NoDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		b := Batch{Seqs: seqs, Expected: expected}
		detected := 0
		got := testing.AllocsPerRun(10, func() {
			br, err := s.SimulateBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			detected = len(br.Detections)
		})
		if detected == 0 {
			t.Fatalf("%s: the screen detected nothing; the measurement exercised no fan-out", tc.name)
		}
		t.Logf("%s: %.0f allocations per screen, %d detections", tc.name, got, detected)
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per screen, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
