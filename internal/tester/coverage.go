package tester

import (
	"time"

	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
)

// CoverageSummary reports which faults a set of tester programs is
// guaranteed to expose on the delay-independent model.
type CoverageSummary struct {
	Total    int
	Detected int
	PerFault []bool     // indexed like the universe passed in
	Stats    fsim.Stats // applied patterns and gate evaluations
	Elapsed  time.Duration
}

// Coverage returns detected/total (1 for an empty universe).
func (s CoverageSummary) Coverage() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Detected) / float64(s.Total)
}

// VerdictsEqual reports whether two measurements over the same fault
// universe agree fault for fault — the bit-identical coverage check a
// compacted program must pass against its original, strictly stronger
// than comparing the coverage ratios.
func (s CoverageSummary) VerdictsEqual(o CoverageSummary) bool {
	if s.Total != o.Total || s.Detected != o.Detected || len(s.PerFault) != len(o.PerFault) {
		return false
	}
	for i, v := range s.PerFault {
		if v != o.PerFault[i] {
			return false
		}
	}
	return true
}

// MeasureCoverage evaluates a fault universe — stuck-at, transition,
// or a mix (every concrete model fsim accepts) — against the program
// set with the bit-parallel fault simulator: programs ride the lanes of
// each 64-lane batch, one representative per
// structural equivalence class is simulated, the classes are spread
// across GOMAXPROCS workers, and detected faults are dropped from later
// batches.
// A fault counts as
// covered only when some cycle's (or the reset) response is guaranteed
// to differ from the program's expected outputs — Expected per cycle,
// ResetExpected before the first pattern, exactly what Simulate
// compares — under every delay assignment; the same promise MonteCarlo
// spot-checks on the timed model, established here exhaustively on the
// untimed one.
func MeasureCoverage(c *netlist.Circuit, progs []Program, universe []faults.Fault) (CoverageSummary, error) {
	start := time.Now()
	sim, err := fsim.New(c, universe, fsim.Options{CheckReset: true})
	if err != nil {
		return CoverageSummary{}, err
	}
	sum := CoverageSummary{Total: len(universe), PerFault: make([]bool, len(universe))}
	seqs := make([][]uint64, len(progs))
	expected := make([][]uint64, len(progs))
	resetExp := make([]uint64, len(progs))
	for i, p := range progs {
		seqs[i] = p.Patterns
		expected[i] = p.Expected
		resetExp[i] = p.ResetExpected
	}
	err = sim.SimulateSequences(seqs, expected, resetExp, func(_ int, br *fsim.BatchResult) {
		for _, d := range br.Detections {
			if !sum.PerFault[d.Fault] {
				sum.PerFault[d.Fault] = true
				sum.Detected++
			}
		}
	})
	if err != nil {
		return CoverageSummary{}, err
	}
	sum.Stats = sim.Stats()
	sum.Elapsed = time.Since(start)
	return sum, nil
}
