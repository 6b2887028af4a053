package fsim

// Event-vs-sweep differential coverage: the cone-limited event engine
// must reproduce the full-sweep oracle's detection matrices bit for
// bit — per fault, per lane, per cycle — at every lane width, in every
// batch shape (plain, Expected-declared, ragged, CheckReset), while
// doing measurably less gate-evaluation work.

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

func TestEventVsSweepDetectedSets(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	const nseq, cycles = 80, 6
	tried := 0
	for seed := int64(1); tried < seeds && seed < int64(20*seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		m := c.NumInputs()
		seqs := make([][]uint64, nseq)
		for l := range seqs {
			n := cycles
			if l%7 == 0 {
				n = cycles / 2 // ragged lanes must stay masked identically
			}
			seq := make([]uint64, n)
			for tc := range seq {
				seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
			}
			seqs[l] = seq
		}
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)

		for _, lanes := range []int{64, 256} {
			run := func(engine EngineKind) (*Simulator, [][]LaneMask) {
				s, err := New(c, universe, Options{
					Workers: 2, Lanes: lanes, Engine: engine,
					NoDrop: true, CheckReset: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				var batches [][]LaneMask
				err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
					cp := make([]LaneMask, len(br.Lanes))
					copy(cp, br.Lanes)
					batches = append(batches, cp)
				})
				if err != nil {
					t.Fatal(err)
				}
				return s, batches
			}
			evs, evb := run(EngineEvent)
			sws, swb := run(EngineSweep)
			if len(evb) != len(swb) {
				t.Fatalf("seed %d lanes %d: batch counts differ", seed, lanes)
			}
			for bi := range evb {
				for fi := range universe {
					if !evb[bi][fi].Equal(swb[bi][fi]) {
						t.Fatalf("seed %d lanes %d batch %d fault %s: event lanes %v != sweep lanes %v",
							seed, lanes, bi, universe[fi].Describe(c), evb[bi][fi], swb[bi][fi])
					}
				}
			}
			evst, swst := evs.Stats(), sws.Stats()
			if evst.Patterns != swst.Patterns {
				t.Fatalf("seed %d lanes %d: pattern counts differ: %d vs %d",
					seed, lanes, evst.Patterns, swst.Patterns)
			}
			if evst.GateEvals <= 0 || swst.GateEvals <= 0 {
				t.Fatalf("seed %d lanes %d: gate evals not counted (%d, %d)",
					seed, lanes, evst.GateEvals, swst.GateEvals)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; event-vs-sweep exercised nothing")
	}
	t.Logf("event-vs-sweep matched %d random circuits", tried)
}

// With dropping on and Expected-declared batches (the ATPG random
// phase's shape), the engines must agree on detected sets and on first
// detection attribution.
func TestEventVsSweepWithExpectedAndDropping(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	const nseq, cycles = 20, 5
	tried := 0
	for seed := int64(50); tried < seeds && seed < int64(50+20*seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		m := c.NumInputs()
		seqs := make([][]uint64, nseq)
		for l := range seqs {
			seq := make([]uint64, cycles)
			for tc := range seq {
				seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
			}
			seqs[l] = seq
		}
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)

		// Expected responses from the sweep-simulated good machine, so
		// detection is judged against declared vectors on both engines.
		gm := newMachine[lanevec.V1](c)
		var zero lanevec.V1
		gm.setAll(zero.FirstN(nseq))
		gm.eng.Inject(nil)
		gm.reset()
		expected := make([][]uint64, nseq)
		for l := range expected {
			expected[l] = make([]uint64, cycles)
		}
		for tc := 0; tc < cycles; tc++ {
			gm.apply(railVecs[lanevec.V1](m, seqs, tc, nseq))
			for l := 0; l < nseq; l++ {
				st := gm.laneState(l)
				var w uint64
				for j, sig := range c.Outputs {
					if st[sig] == logic.One {
						w |= 1 << uint(j)
					}
				}
				expected[l][tc] = w
			}
		}

		run := func(engine EngineKind) (*Simulator, []Detection) {
			s, err := New(c, universe, Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			var dets []Detection
			err = s.SimulateSequences(seqs, expected, nil, func(base int, br *BatchResult) {
				dets = append(dets, br.Detections...)
			})
			if err != nil {
				t.Fatal(err)
			}
			return s, dets
		}
		evs, evd := run(EngineEvent)
		sws, swd := run(EngineSweep)
		if len(evd) != len(swd) {
			t.Fatalf("seed %d: %d event detections vs %d sweep", seed, len(evd), len(swd))
		}
		for i := range evd {
			if evd[i] != swd[i] {
				t.Fatalf("seed %d: detection %d differs: event %+v, sweep %+v", seed, i, evd[i], swd[i])
			}
		}
		for fi := range universe {
			if evs.Detected(fi) != sws.Detected(fi) {
				t.Fatalf("seed %d fault %s: event detected=%v, sweep=%v",
					seed, universe[fi].Describe(c), evs.Detected(fi), sws.Detected(fi))
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated")
	}
	t.Logf("expected/dropping parity on %d random circuits", tried)
}

// The cone-limited engine exists to cut gate evaluations; on circuits
// with real structure the cut must actually materialise.
func TestEventEngineDoesLessWork(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c *netlist.Circuit
	for c == nil {
		ckt, ok := randckt.New(rng, randckt.Config{MinGates: 16, MaxGates: 24})
		if ok {
			c = ckt
		}
	}
	universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)
	const nseq, cycles = 64, 12
	m := c.NumInputs()
	seqs := make([][]uint64, nseq)
	for l := range seqs {
		seq := make([]uint64, cycles)
		for tc := range seq {
			seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
		}
		seqs[l] = seq
	}
	measure := func(engine EngineKind) Stats {
		s, err := New(c, universe, Options{Workers: 1, Engine: engine, NoDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SimulateSequences(seqs, nil, nil, func(int, *BatchResult) {}); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	ev := measure(EngineEvent)
	sw := measure(EngineSweep)
	t.Logf("gate evals: event %d, sweep %d (%.1f%%)", ev.GateEvals, sw.GateEvals,
		100*float64(ev.GateEvals)/float64(sw.GateEvals))
	if ev.GateEvals >= sw.GateEvals {
		t.Fatalf("event engine did not reduce work: %d vs %d evals", ev.GateEvals, sw.GateEvals)
	}
}
