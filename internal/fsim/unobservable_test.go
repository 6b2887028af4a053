package fsim

// Pruning differential suite: the event engine sets the classes whose
// faults are faults.Unobservable aside at New and never simulates
// them, while the sweep engine still settles every class in full.  On
// every batch the two must report identical lane masks and detection
// attributions — also on a batch whose declared responses contradict
// the good machine, the one case where an unobservable class detects.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// goodResponses returns the scalar good machine's packed outputs for
// every pattern of every sequence, and its reset outputs per sequence:
// the responses a tester program declares.
func goodResponses(c *netlist.Circuit, seqs [][]uint64) (expected [][]uint64, reset []uint64) {
	m := sim.Machine{C: c}
	init := m.InitState()
	expected = make([][]uint64, len(seqs))
	reset = make([]uint64, len(seqs))
	for l, seq := range seqs {
		reset[l] = m.PackOutputs(init)
		st := init
		for _, p := range seq {
			st = m.Step(st, p)
			expected[l] = append(expected[l], m.PackOutputs(st))
		}
	}
	return expected, reset
}

// contradict returns copies of the declared responses with output 0
// flipped on every third lane at its middle cycle and on lane 1's
// reset response, so the batch falls to the eager path and the good
// machine itself detects there.
func contradict(expected [][]uint64, reset []uint64) ([][]uint64, []uint64) {
	exp := make([][]uint64, len(expected))
	for l, e := range expected {
		exp[l] = append([]uint64(nil), e...)
		if l%3 == 0 && len(e) > 0 {
			exp[l][len(e)/2] ^= 1
		}
	}
	rst := append([]uint64(nil), reset...)
	if len(rst) > 1 {
		rst[1] ^= 1
	}
	return exp, rst
}

// comparePruned streams the sequences through the event engine and the
// sweep engine under the same options and declared responses, and
// requires bit-identical batch results and detected sets.  It returns
// how many detections of unobservable faults the batches reported.
func comparePruned(t *testing.T, label string, c *netlist.Circuit, universe []faults.Fault, seqs, expected [][]uint64, reset []uint64, opts Options) int {
	t.Helper()
	type outcome struct {
		batches []*BatchResult
		det     []bool
	}
	run := func(engine EngineKind) outcome {
		opts.Engine = engine
		s, err := New(c, universe, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var o outcome
		if err := s.SimulateSequences(seqs, expected, reset, func(_ int, br *BatchResult) {
			o.batches = append(o.batches, br)
		}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		o.det = make([]bool, len(universe))
		for fi := range universe {
			o.det[fi] = s.Detected(fi)
		}
		return o
	}
	ev, sw := run(EngineEvent), run(EngineSweep)
	dead := 0
	for bi := range ev.batches {
		eb, sb := ev.batches[bi], sw.batches[bi]
		for fi := range universe {
			if eb.Lanes[fi] != sb.Lanes[fi] {
				t.Fatalf("%s batch %d fault %s (unobservable=%v): event lanes %b != sweep lanes %b",
					label, bi, universe[fi].Describe(c), faults.Unobservable(c, universe[fi]), eb.Lanes[fi], sb.Lanes[fi])
			}
		}
		if len(eb.Detections) != len(sb.Detections) {
			t.Fatalf("%s batch %d: %d event detections vs %d sweep", label, bi, len(eb.Detections), len(sb.Detections))
		}
		for i := range eb.Detections {
			if eb.Detections[i] != sb.Detections[i] {
				t.Fatalf("%s batch %d: detection %d differs: event %+v, sweep %+v",
					label, bi, i, eb.Detections[i], sb.Detections[i])
			}
			if faults.Unobservable(c, universe[eb.Detections[i].Fault]) {
				dead++
			}
		}
	}
	for fi := range universe {
		if ev.det[fi] != sw.det[fi] {
			t.Fatalf("%s fault %s: event detected=%v, sweep=%v", label, universe[fi].Describe(c), ev.det[fi], sw.det[fi])
		}
	}
	return dead
}

// comparePrunedAll runs comparePruned with and without dropping, on
// responses judged against the good machine, declared equal to it, and
// declared against it.  Only the last can make an unobservable fault
// detect, and it must.
func comparePrunedAll(t *testing.T, label string, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64) {
	t.Helper()
	good, goodReset := goodResponses(c, seqs)
	bad, badReset := contradict(good, goodReset)
	for _, resp := range []struct {
		name     string
		expected [][]uint64
		reset    []uint64
		detects  bool // whether unobservable faults detect
	}{
		{"judged", nil, nil, false},
		{"declared", good, goodReset, false},
		{"contradicted", bad, badReset, true},
	} {
		for _, noDrop := range []bool{false, true} {
			dead := comparePruned(t, label+"/"+resp.name, c, universe, seqs, resp.expected, resp.reset,
				Options{NoDrop: noDrop, CheckReset: true})
			if (dead > 0) != resp.detects {
				t.Fatalf("%s/%s, NoDrop=%v: %d detections of unobservable faults",
					label, resp.name, noDrop, dead)
			}
		}
	}
}

// TestPrunedEventMatchesSweepRandckt compares the engines on seeded
// random circuits, keeping those with unobservable logic.
func TestPrunedEventMatchesSweepRandckt(t *testing.T) {
	want := 6
	if testing.Short() {
		want = 2
	}
	rng := rand.New(rand.NewSource(404))
	for tried := 0; tried < want; {
		c, ok := randckt.New(rng, randckt.Config{MinGates: 12, MaxGates: 40, FeedbackProb: 0.4})
		if !ok {
			continue
		}
		universe := faults.SelectUniverse(c, faults.InputSA, faults.SelBoth)
		hasDead := false
		for _, f := range universe {
			hasDead = hasDead || faults.Unobservable(c, f)
		}
		if !hasDead {
			continue
		}
		tried++
		comparePrunedAll(t, c.Name, c, universe, seqsFor(rng, c, 70, 6))
	}
}

// TestPrunedEventMatchesSweepS349 compares the engines on s349, whose
// input stuck-at universe is 71% unobservable.
func TestPrunedEventMatchesSweepS349(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep oracle settles all of s349 per fault; the randckt circuits cover -short")
	}
	f, err := os.Open(filepath.Join("..", "..", "examples", "iscas", "s349.ckt"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := netlist.Parse(f, "s349")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	seqs := seqsFor(rand.New(rand.NewSource(349)), c, 24, 4)
	comparePrunedAll(t, "s349", c, faults.InputUniverse(c), seqs)
}
