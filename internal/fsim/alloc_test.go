package fsim

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
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
// against its declared responses.  Each case measures two streams of
// screens on one Simulator: one test screened again and again, and a
// test the Simulator has not screened before at every screen — the
// flows' real traffic.  Both cost the same, because the good trace and
// its diffs are recorded into arrays the Simulator reuses, and the
// packed batch reads the inputs' reset values without building a
// state.  What is left at one worker is the batch result itself: a
// detected class costs no mask allocation, and the live-class filter
// and the detection lists reuse the Simulator's scratch.  A second
// worker adds its goroutine and the closure that starts it.  The Simulator is
// warmed first, on tests of its own: a worker's machine grows its
// scratch the first time it meets a wider cone, and which classes each
// worker takes varies from batch to batch.
func TestScreenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would be counted")
	}
	const warm, runs = 20, 10
	for _, tc := range []struct {
		name    string
		workers int
		max     float64
	}{
		{"s27", 1, 3},
		{"s349", 1, 3},
		{"s953", 1, 3},
		{"s27", 2, 5},
		{"s349", 2, 5},
		{"s953", 2, 5},
	} {
		c := loadCorpus(t, tc.name)
		rng := rand.New(rand.NewSource(1))
		// A ring of prebuilt screens: the warm-up's, then one per
		// measured distinct screen (testing.AllocsPerRun screens once
		// more before it measures).
		ring := make([]Batch, warm+runs+1)
		for i := range ring {
			seqs := seqsFor(rng, c, 1, 12)
			expected, _ := goodResponses(c, seqs)
			ring[i] = Batch{Seqs: seqs, Expected: expected}
		}
		s, err := New(c, faults.InputUniverse(c), Options{Workers: tc.workers, NoDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		i, detected := 0, 0
		screen := func(b Batch) {
			br, err := s.SimulateBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			detected = len(br.Detections)
		}
		for ; i < warm; i++ {
			screen(ring[i])
		}
		for _, stream := range []struct {
			name string
			next func() Batch
		}{
			{"repeated", func() Batch { return ring[0] }},
			{"distinct", func() Batch { i++; return ring[i-1] }},
		} {
			got := testing.AllocsPerRun(runs, func() { screen(stream.next()) })
			if detected == 0 {
				t.Fatalf("%s: the screen detected nothing; the measurement exercised no fan-out", tc.name)
			}
			t.Logf("%s at %d workers, %s tests: %.0f allocations per screen, %d detections", tc.name, tc.workers, stream.name, got, detected)
			if got > tc.max {
				t.Errorf("%s at %d workers, %s tests: %.0f allocations per screen, want at most %.0f", tc.name, tc.workers, stream.name, got, tc.max)
			}
		}
	}
}

// TestSimulatorAllocsSettle pins Stats.Allocs, which counts the growth
// of the packed batch, the good trace, its diff bitsets and the
// machines' scratch: nonzero after the first batch, and unchanged over
// ten more batches of the same shape but different sequences, on both
// engines.  One worker meets every class in the first batch, so no
// later batch can show it a wider cone.
func TestSimulatorAllocsSettle(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	var c *netlist.Circuit
	for c == nil {
		if cand, ok := randckt.New(rng, randckt.Config{}); ok {
			c = cand
		}
	}
	for _, engine := range []EngineKind{EngineEvent, EngineSweep} {
		s, err := New(c, faults.OutputUniverse(c), Options{Workers: 1, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		batch := func() {
			if _, err := s.SimulateBatch(Batch{Seqs: randSeqs(rng, c.NumInputs(), 16, 6)}); err != nil {
				t.Fatal(err)
			}
		}
		batch()
		first := s.Stats().Allocs
		if first == 0 {
			t.Fatalf("%s: the first batch reported no allocations", engine)
		}
		for range 10 {
			batch()
		}
		if got := s.Stats().Allocs; got != first {
			t.Errorf("%s: %d allocations after the first batch, %d after ten more of the same shape", engine, first, got)
		}
	}
}
