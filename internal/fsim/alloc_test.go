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
// already cached.  What is left at one worker is the batch result
// itself: a detected class costs no mask allocation, and the live-class
// filter and the detection lists reuse the Simulator's scratch.  A
// second worker adds its goroutine and the closure that starts it.
// The Simulator is warmed first: a worker's machine grows its scratch
// the first time it meets a wider cone, and which classes each worker
// takes varies from batch to batch.
func TestScreenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would be counted")
	}
	for _, tc := range []struct {
		name    string
		workers int
		max     float64
	}{
		{"s27", 1, 4},
		{"s349", 1, 4},
		{"s953", 1, 4},
		{"s27", 2, 6},
		{"s349", 2, 6},
		{"s953", 2, 6},
	} {
		c := loadCorpus(t, tc.name)
		seqs := seqsFor(rand.New(rand.NewSource(1)), c, 1, 12)
		expected, _ := goodResponses(c, seqs)
		s, err := New(c, faults.InputUniverse(c), Options{Workers: tc.workers, NoDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		b := Batch{Seqs: seqs, Expected: expected}
		detected := 0
		screen := func() {
			br, err := s.SimulateBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			detected = len(br.Detections)
		}
		for range 20 {
			screen()
		}
		got := testing.AllocsPerRun(10, screen)
		if detected == 0 {
			t.Fatalf("%s: the screen detected nothing; the measurement exercised no fan-out", tc.name)
		}
		t.Logf("%s at %d workers: %.0f allocations per screen, %d detections", tc.name, tc.workers, got, detected)
		if got > tc.max {
			t.Errorf("%s at %d workers: %.0f allocations per screen, want at most %.0f", tc.name, tc.workers, got, tc.max)
		}
	}
}
