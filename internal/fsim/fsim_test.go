package fsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

const toySrc = `
circuit toy
input A
output y
gate n1 NOT A
gate y NOT n1
init A=0 n1=1 y=0
`

func toy(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(toySrc, "toy.ckt")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func findFault(t *testing.T, c *netlist.Circuit, universe []faults.Fault, name string, v logic.V) int {
	t.Helper()
	for i, f := range universe {
		if f.Type == faults.OutputSA && c.Gates[f.Gate].Name == name && f.Value == v {
			return i
		}
	}
	t.Fatalf("fault %s/SA%s not in universe", name, v)
	return -1
}

func TestDetectsOutputStuckAt(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	s, err := New(c, universe, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0 drives A=1 (good y=1), lane 1 holds A=0 (good y=0).
	res, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{1}, {0}}})
	if err != nil {
		t.Fatal(err)
	}
	sa0 := findFault(t, c, universe, "y", logic.Zero)
	sa1 := findFault(t, c, universe, "y", logic.One)
	if res.Lanes[sa0]&1 == 0 {
		t.Errorf("y/SA0 must be detected by lane 0 (A=1): lanes=%b", res.Lanes[sa0])
	}
	if res.Lanes[sa1]&2 == 0 {
		t.Errorf("y/SA1 must be detected by lane 1 (A=0): lanes=%b", res.Lanes[sa1])
	}
	if !s.Detected(sa0) || !s.Detected(sa1) {
		t.Error("detections not recorded")
	}
	// Every output fault of this chain is detected by one of the lanes.
	if s.Coverage() != 1 {
		t.Errorf("toy chain output-SA coverage: got %.2f, want 1", s.Coverage())
	}
}

func TestResetDetection(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	s, err := New(c, universe, Options{Workers: 1, CheckReset: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	// Good reset has y=0, so y/SA1 is observable before any pattern.
	sa1 := findFault(t, c, universe, "y", logic.One)
	for _, d := range res.Detections {
		if d.Fault == sa1 {
			if d.Cycle != -1 {
				t.Errorf("y/SA1 should be caught at reset, got cycle %d", d.Cycle)
			}
			return
		}
	}
	t.Error("y/SA1 not detected")
}

func TestFaultDroppingRemovesFromLaterBatches(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	s, err := New(c, universe, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{1}}}); err != nil {
		t.Fatal(err)
	}
	firstRemaining := len(s.Remaining())
	if firstRemaining == len(universe) {
		t.Fatal("first batch detected nothing; dropping untestable")
	}
	res2, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res2.Detections {
		t.Errorf("dropped fault %d re-reported in second batch", d.Fault)
	}
}

func TestManualDropWithNoDrop(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	s, err := New(c, universe, Options{Workers: 1, NoDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) == 0 {
		t.Fatal("nothing detected")
	}
	fi := res.Detections[0].Fault
	if len(s.Remaining()) != len(universe) {
		t.Error("NoDrop must keep every fault in the simulation")
	}
	s.Drop(fi)
	res2, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Lanes[fi] != 0 {
		t.Error("manually dropped fault still simulated")
	}
}

func TestExpectedTraceMatchesGoodRun(t *testing.T) {
	c := toy(t)
	universe := faults.InputUniverse(c)
	seqs := [][]uint64{{1, 0, 1}, {0, 1, 0}}
	// Expected trace for the toy buffer chain: y follows A.
	expected := [][]uint64{{1, 0, 1}, {0, 1, 0}}

	run := func(b Batch) *BatchResult {
		s, err := New(c, universe, Options{Workers: 1, NoDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SimulateBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	byGood := run(Batch{Seqs: seqs})
	byExp := run(Batch{Seqs: seqs, Expected: expected})
	for fi := range universe {
		if byGood.Lanes[fi] != byExp.Lanes[fi] {
			t.Errorf("fault %d: good-run lanes %b != expected-trace lanes %b",
				fi, byGood.Lanes[fi], byExp.Lanes[fi])
		}
	}
}

func TestRaggedBatchMasksExhaustedLanes(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	s, err := New(c, universe, Options{Workers: 1, NoDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	// Lane 1's sequence ends after one cycle; cycle 2 detections may only
	// come from lane 0.
	res, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{0, 1}, {0}}})
	if err != nil {
		t.Fatal(err)
	}
	sa0 := findFault(t, c, universe, "y", logic.Zero)
	if res.Lanes[sa0]&2 != 0 {
		t.Error("exhausted lane 1 must not report detections at cycle 1")
	}
	if res.Lanes[sa0]&1 == 0 {
		t.Error("lane 0 (A: 0 then 1) must detect y/SA0")
	}
}

// NoDrop promises the complete fault × lane matrix even when the fault
// is already observable at reset (regression: reset detection once
// short-circuited the per-cycle lanes).
func TestNoDropWithCheckResetKeepsFullMatrix(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	sa1 := findFault(t, c, universe, "y", logic.One)

	matrix := func(checkReset bool) uint64 {
		s, err := New(c, universe, Options{Workers: 1, NoDrop: true, CheckReset: checkReset})
		if err != nil {
			t.Fatal(err)
		}
		// Lane 0 keeps A=0 (good y=0: detects y/SA1 per cycle too);
		// lane 1 drives A=1 then A=0.
		res, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{0, 0}, {1, 0}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Lanes[sa1]
	}
	without := matrix(false)
	with := matrix(true)
	if without&^with != 0 {
		t.Errorf("CheckReset lost per-cycle matrix rows: with=%b without=%b", with, without)
	}
	if with == 0 || without == 0 {
		t.Fatal("y/SA1 must be detected in both configurations")
	}
}

func TestSimulateSequencesChunksAcrossBatches(t *testing.T) {
	c := toy(t)
	universe := faults.OutputUniverse(c)
	s, err := New(c, universe, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 65 sequences force two batches; only the last sequence (index 64,
	// lane 0 of batch two) toggles the input, so its batch provides the
	// detections that the all-constant first batch cannot.
	seqs := make([][]uint64, 65)
	for i := range seqs {
		seqs[i] = []uint64{0}
	}
	seqs[64] = []uint64{1, 0}
	var bases []int
	err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
		bases = append(bases, base)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 2 || bases[0] != 0 || bases[1] != Lanes {
		t.Fatalf("expected batch bases [0 %d], got %v", Lanes, bases)
	}
	if s.Coverage() != 1 {
		t.Fatalf("the toggling sequence covers the whole chain: got %.2f", s.Coverage())
	}

	// Empty sets still run one reset-observation batch when CheckReset.
	s2, err := New(c, universe, Options{Workers: 1, CheckReset: true})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	detected := 0
	err = s2.SimulateSequences(nil, nil, nil, func(base int, br *BatchResult) {
		calls++
		detected += len(br.Detections)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || detected == 0 {
		t.Fatalf("empty set: %d calls, %d reset detections", calls, detected)
	}
}

func TestErrors(t *testing.T) {
	c := toy(t)
	if _, err := New(c, faults.TransitionUniverse(c), Options{}); err != nil {
		t.Errorf("transition universe must be accepted: %v", err)
	}
	if _, err := New(c, []faults.Fault{{Type: faults.Transition, Gate: 0, Pin: -1}}, Options{}); err == nil {
		t.Error("the Transition model selector is not a concrete fault and must be rejected")
	}
	s, err := New(c, faults.OutputUniverse(c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateBatch(Batch{}); err == nil {
		t.Error("empty batch must be rejected")
	}
	if _, err := s.SimulateBatch(Batch{Seqs: make([][]uint64, Lanes+1)}); err == nil {
		t.Error("over-wide batch must be rejected")
	}
	if _, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{0}}, Expected: [][]uint64{{0, 0}}}); err == nil {
		t.Error("ragged Expected must be rejected")
	}
	if _, err := s.SimulateBatch(Batch{Seqs: [][]uint64{{0}, {0}}, Expected: [][]uint64{{0}}}); err == nil {
		t.Error("Expected lane-count mismatch must be rejected")
	}
}

// TestConcurrentSimulatorsAgree runs eight Simulators over one circuit
// and one sequence set at once: every report must be bit-identical.
// Each Simulator records its own good trace; what they share is the
// circuit's Topology, which the race job checks here.
func TestConcurrentSimulatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	var c *netlist.Circuit
	for c == nil {
		if cand, ok := randckt.New(rng, randckt.Config{}); ok {
			c = cand
		}
	}
	universe := faults.OutputUniverse(c)
	seqs := randSeqs(rng, c.NumInputs(), 32, 8)

	const n = 8
	var wg sync.WaitGroup
	results := make([][]Detection, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := New(c, universe, Options{Engine: EngineEvent})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
				results[i] = append(results[i], br.Detections...)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("simulator %d: %v", i, err)
		}
	}
	if len(results[0]) == 0 {
		t.Fatal("no detections — the run proved nothing")
	}
	for i := 1; i < n; i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("simulator %d found %d detections, simulator 0 found %d",
				i, len(results[i]), len(results[0]))
		}
		for j := range results[i] {
			if results[i][j] != results[0][j] {
				t.Fatalf("simulator %d detection %d = %+v, simulator 0 = %+v",
					i, j, results[i][j], results[0][j])
			}
		}
	}
}
