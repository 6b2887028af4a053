package fsim

// Differential property tests: on seeded random (usually cyclic)
// circuits, the bit-parallel engine must agree with the scalar ternary
// simulator in internal/sim pattern-for-pattern — the full per-lane
// ternary state for the good machine and for every injected stuck-at
// fault, and the resulting detected-fault sets.  The collapse tests
// pin representative simulation to the full universe.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
)

func TestDifferentialAgainstScalarTernary(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	const lanes, cycles = 8, 6
	tried := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		seqs := randSeqs(rng, c.NumInputs(), lanes, cycles)
		name := fmt.Sprintf("seed %d", seed)
		checkAgainstScalar(t, name, c, append(faults.OutputUniverse(c), faults.InputUniverse(c)...), seqs)
		// The transition universe rides directional overrides; its lane
		// states must track the scalar machine state for state too.
		checkAgainstScalar(t, name+" transition", c, faults.TransitionUniverse(c), seqs)
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; differential test exercised nothing")
	}
	t.Logf("differential-tested %d random circuits", tried)

	// Figure 1(b): raising A starts an oscillation, so the lanes that
	// apply A=1 settle to Φ in the good and the faulty machines alike.
	rng := rand.New(rand.NewSource(7))
	fig1b := circuits.Fig1b()
	checkAgainstScalar(t, "fig1b", fig1b, append(faults.OutputUniverse(fig1b), faults.InputUniverse(fig1b)...),
		randSeqs(rng, fig1b.NumInputs(), lanes, cycles))

	// An output stuck-at on an input buffer models a stuck primary-input
	// wire; the engine must expose it through the downstream logic.
	wire, err := netlist.ParseString("circuit wire\ninput a\noutput z\ngate z BUF a\ninit a=0 z=0\n", "wire.ckt")
	if err != nil {
		t.Fatal(err)
	}
	stuck := faults.Fault{Type: faults.OutputSA, Gate: 0, Pin: -1, Value: logic.Zero}
	ref := checkAgainstScalar(t, "wire", wire, []faults.Fault{stuck}, randSeqs(rng, wire.NumInputs(), lanes, cycles))
	if ref[0] == 0 {
		t.Error("wire: the stuck input line is detected in no lane")
	}
}

// checkAgainstScalar runs one circuit, fault universe and sequence set
// (one sequence per lane) through the bit-parallel machine and the
// scalar ternary machine: the per-lane states must agree at reset and
// after every cycle, for the good machine and every fault, and the
// public API's detection matrix — collapsed and not, serial and
// sharded, dropping or not — must equal the scalar one, which it
// returns (bit l of row fi: lane l detects fault fi).
func checkAgainstScalar(t *testing.T, name string, c *netlist.Circuit, universe []faults.Fault, seqs [][]uint64) []uint64 {
	t.Helper()
	lanes, cycles := len(seqs), len(seqs[0])

	// Scalar reference: good trace per lane, then per-fault states and
	// the detection matrix.
	goodStates := make([][]logic.Vec, lanes) // [lane][cycle]
	goodMachine := sim.Machine{C: c}
	for l := 0; l < lanes; l++ {
		st := goodMachine.InitState()
		goodStates[l] = make([]logic.Vec, cycles)
		for tc := 0; tc < cycles; tc++ {
			st = goodMachine.Step(st, seqs[l][tc])
			goodStates[l][tc] = st
		}
	}

	all := uint64(1)<<uint(lanes) - 1

	// Good machine, bit-parallel: states must agree lane-for-lane.
	bm := newMachine(c)
	bm.setAll(all)
	bm.eng.Inject(nil)
	bm.reset()
	if ref := goodMachine.InitState(); !bm.laneState(0).Equal(ref) {
		t.Fatalf("%s: good reset state differs:\n fsim %s\n  sim %s", name, bm.laneState(0), ref)
	}
	for tc := 0; tc < cycles; tc++ {
		bm.apply(railVecs(c.NumInputs(), seqs, tc, lanes))
		for l := 0; l < lanes; l++ {
			if !bm.laneState(l).Equal(goodStates[l][tc]) {
				t.Fatalf("%s: good lane %d cycle %d differs:\n fsim %s\n  sim %s",
					name, l, tc, bm.laneState(l), goodStates[l][tc])
			}
		}
	}

	// Per-fault state parity plus the scalar detection matrix.
	refMatrix := make([]uint64, len(universe))
	for fi := range universe {
		f := universe[fi]
		fm := sim.Machine{C: c, Fault: &f}
		pm := newMachine(c)
		pm.setAll(all)
		pm.eng.Inject(&universe[fi])
		pm.reset()
		states := make([]logic.Vec, lanes)
		for l := range states {
			states[l] = fm.InitState()
			if !pm.laneState(l).Equal(states[l]) {
				t.Fatalf("%s fault %s: reset state lane %d differs:\n fsim %s\n  sim %s",
					name, f.Describe(c), l, pm.laneState(l), states[l])
			}
		}
		for tc := 0; tc < cycles; tc++ {
			pm.apply(railVecs(c.NumInputs(), seqs, tc, lanes))
			for l := 0; l < lanes; l++ {
				states[l] = fm.Step(states[l], seqs[l][tc])
				if !pm.laneState(l).Equal(states[l]) {
					t.Fatalf("%s fault %s: lane %d cycle %d differs:\n fsim %s\n  sim %s",
						name, f.Describe(c), l, tc, pm.laneState(l), states[l])
				}
				if scalarDetects(c, goodStates[l][tc], states[l]) {
					refMatrix[fi] |= 1 << uint(l)
				}
			}
		}
	}

	// Detection matrix through the public API (NoDrop: full matrix),
	// with representative collapsing on (the default) and off — both
	// must reproduce the scalar matrix exactly.
	for _, noCollapse := range []bool{false, true} {
		s, err := New(c, universe, Options{Workers: 1, NoDrop: true, NoCollapse: noCollapse})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SimulateBatch(Batch{Seqs: seqs})
		if err != nil {
			t.Fatal(err)
		}
		for fi := range universe {
			if res.Lanes[fi] != refMatrix[fi] {
				t.Errorf("%s fault %s (noCollapse=%v): detection lanes differ: fsim %b, scalar %b",
					name, universe[fi].Describe(c), noCollapse, res.Lanes[fi], refMatrix[fi])
			}
		}
	}

	// Sharded run must reproduce the single-worker matrix exactly.
	s, err := New(c, universe, Options{Workers: 1, NoDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SimulateBatch(Batch{Seqs: seqs})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := New(c, universe, Options{Workers: 4, NoDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := s4.SimulateBatch(Batch{Seqs: seqs})
	if err != nil {
		t.Fatal(err)
	}
	for fi := range universe {
		if res4.Lanes[fi] != res.Lanes[fi] {
			t.Errorf("%s fault %d: sharded lanes %b != serial lanes %b",
				name, fi, res4.Lanes[fi], res.Lanes[fi])
		}
	}

	// With dropping on, the detected set must equal the matrix's
	// nonzero rows (dropping only skips redundant work, never answers).
	sd, err := New(c, universe, Options{NoDrop: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.SimulateBatch(Batch{Seqs: seqs}); err != nil {
		t.Fatal(err)
	}
	for fi := range universe {
		if sd.Detected(fi) != (refMatrix[fi] != 0) {
			t.Errorf("%s fault %s: dropping changed the verdict (detected=%v, scalar lanes=%b)",
				name, universe[fi].Describe(c), sd.Detected(fi), refMatrix[fi])
		}
	}
	return refMatrix
}

// TestCollapseVsFullDetectedSets is the collapse-vs-full property: the
// default representative simulation must report, fault for fault, the
// very lanes and cycles the uncollapsed run reports.
func TestCollapseVsFullDetectedSets(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	const nseq, cycles = 16, 6
	tried := 0
	for seed := int64(100); tried < seeds && seed < int64(100+20*seeds); seed++ {
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
		cl := faults.Collapse(c, universe)
		if cl.NumClasses == len(universe) {
			continue // nothing collapsed; the run would be trivially equal
		}

		run := func(noCollapse bool) *BatchResult {
			s, err := New(c, universe, Options{Workers: 1, NoDrop: true, CheckReset: true, NoCollapse: noCollapse})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.SimulateBatch(Batch{Seqs: seqs})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		collapsed, full := run(false), run(true)
		for fi := range universe {
			if collapsed.Lanes[fi] != full.Lanes[fi] {
				t.Errorf("seed %d fault %s: collapsed lanes %b != full lanes %b",
					seed, universe[fi].Describe(c), collapsed.Lanes[fi], full.Lanes[fi])
			}
		}
		if len(collapsed.Detections) != len(full.Detections) {
			t.Fatalf("seed %d: %d collapsed detections vs %d full",
				seed, len(collapsed.Detections), len(full.Detections))
		}
		for i, d := range collapsed.Detections {
			if d != full.Detections[i] {
				t.Errorf("seed %d: detection %d differs: collapsed %+v, full %+v",
					seed, i, d, full.Detections[i])
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; collapse test exercised nothing")
	}
	t.Logf("collapse-tested %d random circuits", tried)
}

// TestCollapseClassesScalarEquivalent is the scalar soundness property
// behind representative simulation: every member of a collapse class,
// run on the scalar ternary machine from reset, must produce the same
// primary-output trace cycle for cycle.
func TestCollapseClassesScalarEquivalent(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	const cycles = 8
	tried, classesChecked := 0, 0
	for seed := int64(1); tried < seeds && seed < int64(20*seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)
		cl := faults.Collapse(c, universe)
		members := cl.Members()
		m := c.NumInputs()
		patterns := make([]uint64, cycles)
		for tc := range patterns {
			patterns[tc] = rng.Uint64() & (1<<uint(m) - 1)
		}
		for _, class := range members {
			if len(class) < 2 {
				continue
			}
			classesChecked++
			ref := universe[class[0]]
			refM := sim.Machine{C: c, Fault: &ref}
			refSt := refM.InitState()
			for i := 1; i < len(class); i++ {
				f := universe[class[i]]
				fm := sim.Machine{C: c, Fault: &f}
				st := fm.InitState()
				if !refM.Outputs(refSt).Equal(fm.Outputs(st)) {
					t.Fatalf("seed %d: class members %s and %s differ at reset: %s vs %s",
						seed, ref.Describe(c), f.Describe(c), refM.Outputs(refSt), fm.Outputs(st))
				}
				a, b := refSt, st
				for tc, p := range patterns {
					a = refM.Step(a, p)
					b = fm.Step(b, p)
					if !refM.Outputs(a).Equal(fm.Outputs(b)) {
						t.Fatalf("seed %d cycle %d: class members %s and %s diverge: %s vs %s",
							seed, tc, ref.Describe(c), f.Describe(c), refM.Outputs(a), fm.Outputs(b))
					}
				}
			}
		}
	}
	if classesChecked == 0 {
		t.Fatal("no multi-member class found; collapse equivalence exercised nothing")
	}
	t.Logf("checked %d collapse classes on %d circuits", classesChecked, tried)
}

// railVecs transposes cycle tc of the sequences into per-input lane
// words.
func railVecs(m int, seqs [][]uint64, tc, lanes int) []uint64 {
	words := make([]uint64, m)
	for l := 0; l < lanes; l++ {
		for i := 0; i < m; i++ {
			words[i] |= seqs[l][tc] >> uint(i) & 1 << uint(l)
		}
	}
	return words
}

// scalarDetects mirrors the engine's detection rule on scalar states:
// some primary output definite in both machines with opposite values.
func scalarDetects(c *netlist.Circuit, good, faulty logic.Vec) bool {
	gv := c.OutputVec(good)
	fv := c.OutputVec(faulty)
	for j := range gv {
		if gv[j].IsDefinite() && fv[j].IsDefinite() && gv[j] != fv[j] {
			return true
		}
	}
	return false
}
