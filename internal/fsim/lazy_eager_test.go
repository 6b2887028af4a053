package fsim

// Lazy-vs-eager seeding differential suite: the lazily-seeded
// cone-limited event engine (support-only state loads, marked rewinds,
// explicit driver seeds, cone-restricted detection) must be observably
// identical to the eager fallback (full state loads, every cone gate
// enqueued per phase, all outputs compared), which in turn is the
// behavior the event-vs-sweep suite pins to the Jacobi oracle.  The
// comparison runs the full batch surface — per-lane masks, detection
// attribution (fault/lane/cycle) and complete detection-matrix rows —
// across multi-word random circuits (65–300 signals), the ISCAS-89
// derived corpus, both engines, and every fault selection.

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// runBoth simulates the batch stream with lazy and with eager seeding
// and requires bit-identical results on every surface.
func compareLazyEager(t *testing.T, label string, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64) {
	t.Helper()
	type outcome struct {
		batches [][]uint64
		dets    [][]Detection
		det     []bool
	}
	run := func(eager bool) outcome {
		s, err := New(c, universe, Options{
			Engine: EngineEvent, CheckReset: true, eagerSeed: eager,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var o outcome
		err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
			o.batches = append(o.batches, append([]uint64(nil), br.Lanes...))
			o.dets = append(o.dets, append([]Detection(nil), br.Detections...))
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		o.det = make([]bool, len(universe))
		for fi := range universe {
			o.det[fi] = s.Detected(fi)
		}
		return o
	}
	lazy, eager := run(false), run(true)
	if len(lazy.batches) != len(eager.batches) {
		t.Fatalf("%s: batch counts differ: %d vs %d", label, len(lazy.batches), len(eager.batches))
	}
	for bi := range lazy.batches {
		for fi := range universe {
			if lazy.batches[bi][fi] != eager.batches[bi][fi] {
				t.Fatalf("%s batch %d fault %s: lazy lanes %b != eager lanes %b",
					label, bi, universe[fi].Describe(c), lazy.batches[bi][fi], eager.batches[bi][fi])
			}
		}
		ld, ed := lazy.dets[bi], eager.dets[bi]
		if len(ld) != len(ed) {
			t.Fatalf("%s batch %d: %d vs %d detections", label, bi, len(ld), len(ed))
		}
		for i := range ld {
			if ld[i] != ed[i] {
				t.Fatalf("%s batch %d: detection %d differs: lazy %+v, eager %+v",
					label, bi, i, ld[i], ed[i])
			}
		}
	}
	for fi := range universe {
		if lazy.det[fi] != eager.det[fi] {
			t.Fatalf("%s fault %s: lazy det=%v, eager det=%v",
				label, universe[fi].Describe(c), lazy.det[fi], eager.det[fi])
		}
	}
}

// compareMatrices requires identical full detection-matrix rows across
// lazy event, eager event and (optionally) the sweep engine.
func compareMatrices(t *testing.T, label string, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64, withSweep bool) {
	t.Helper()
	matrix := func(engine EngineKind, eager bool) []LaneMask {
		rows, _, err := DetectionMatrix(c, universe, seqs, nil, nil, Options{
			Engine: engine, CheckReset: true, eagerSeed: eager,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return rows
	}
	lazy := matrix(EngineEvent, false)
	for _, ref := range []struct {
		name string
		rows []LaneMask
		on   bool
	}{
		{"eager-event", matrix(EngineEvent, true), true},
		{"sweep", nil, withSweep},
	} {
		if !ref.on {
			continue
		}
		rows := ref.rows
		if rows == nil {
			rows = matrix(EngineSweep, false)
		}
		for fi := range universe {
			if !lazy[fi].Equal(rows[fi]) {
				t.Fatalf("%s fault %s: lazy-event row %v != %s row %v",
					label, universe[fi].Describe(c), lazy[fi], ref.name, rows[fi])
			}
		}
	}
}

func seqsFor(rng *rand.Rand, c *netlist.Circuit, nseq, cycles int) [][]uint64 {
	m := c.NumInputs()
	seqs := make([][]uint64, nseq)
	for l := range seqs {
		n := cycles
		if l%5 == 0 {
			n = cycles/2 + 1 // ragged lanes must stay masked identically
		}
		seq := make([]uint64, n)
		for tc := range seq {
			seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
		}
		seqs[l] = seq
	}
	return seqs
}

var faultSelections = []struct {
	name string
	sel  faults.Selection
}{
	{"sa", faults.SelStuckAt},
	{"transition", faults.SelTransition},
	{"both", faults.SelBoth},
}

// TestLazyVsEagerRandckt sweeps seeded random multi-word circuits from
// just past the one-word ceiling up to ~300 signals.
func TestLazyVsEagerRandckt(t *testing.T) {
	// The Jacobi sweep oracle costs O(gates) per pattern per fault
	// class, so the largest band pins lazy against eager event only —
	// eager-event-vs-sweep at that scale is covered by the multi-word
	// parity corpus and the scale benchmark's own parity assertion.
	bands := []struct {
		min, max int // gate counts; signals = 2·inputs + gates
		sweep    bool
	}{
		{61, 90, true},    // 65–96 signals
		{120, 170, true},  // 124–176 signals
		{230, 290, false}, // 234–296 signals
	}
	per := 3
	if testing.Short() {
		per = 1
	}
	for bi, band := range bands {
		rng := rand.New(rand.NewSource(int64(1000 + bi)))
		tried := 0
		for tried < per {
			c, ok := randckt.New(rng, randckt.Config{MinGates: band.min, MaxGates: band.max})
			if !ok {
				continue
			}
			if c.NumSignals() <= 64 || c.NumSignals() > 300 {
				t.Fatalf("band %d: circuit %s has %d signals, outside the multi-word target band",
					bi, c.Name, c.NumSignals())
			}
			tried++
			seqs := seqsFor(rng, c, 20, 6)
			for _, fs := range faultSelections {
				universe := faults.SelectUniverse(c, faults.InputSA, fs.sel)
				label := c.Name + "/" + fs.name
				compareLazyEager(t, label, c, universe, seqs)
				compareMatrices(t, label, c, universe, seqs, band.sweep)
			}
		}
	}
}

// TestLazyVsEagerISCAS runs the corpus circuits.  The sweep-engine
// cross-check is skipped where its full-Jacobi cost would dominate the
// suite (s953 beyond the stuck-at selection); the event-vs-sweep
// equivalence there is already pinned by the scale benchmark's parity
// assertion and the randckt bands above.
func TestLazyVsEagerISCAS(t *testing.T) {
	shapes := map[string]struct{ nseq, cycles int }{
		"s27":  {32, 8},
		"s349": {24, 8},
		"s953": {16, 6},
	}
	if testing.Short() {
		shapes = map[string]struct{ nseq, cycles int }{"s349": {8, 5}}
	}
	for _, name := range []string{"s27", "s349", "s953"} {
		shape, ok := shapes[name]
		if !ok {
			continue
		}
		c := loadCorpus(t, name)
		rng := rand.New(rand.NewSource(31))
		seqs := seqsFor(rng, c, shape.nseq, shape.cycles)
		for _, fs := range faultSelections {
			universe := faults.SelectUniverse(c, faults.InputSA, fs.sel)
			label := name + "/" + fs.name
			compareLazyEager(t, label, c, universe, seqs)
			withSweep := name != "s953" || fs.sel == faults.SelStuckAt
			compareMatrices(t, label, c, universe, seqs, withSweep)
		}
	}
}
