package compact

import (
	"context"

	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// Matrix is the exact per-program detection matrix of a test program
// set: Rows[f] has bit t set iff running program t on its own — the
// tester comparing the reset response against the program's
// ResetExpected and every cycle's outputs against its Expected —
// guarantees detection of fault f under every delay assignment.  It is
// the ground truth every compaction pass argues against, computed in
// one batched fsim pass (fsim.DetectionMatrix): programs ride lanes,
// one representative per structural equivalence class is simulated
// with the cached good trace and cone limiting, and verdicts fan out
// so equivalent faults carry bit-identical rows.
type Matrix struct {
	NumTests int
	// Rows maps each universe index to its mask over programs; an empty
	// (nil) row means no program detects the fault.
	Rows []fsim.LaneMask
	// Detected counts the faults with nonempty rows.
	Detected int
	// Stats carries the fault-simulation work counters of the pass.
	Stats fsim.Stats
}

// Covers reports whether program t detects fault fi.
func (m *Matrix) Covers(fi, t int) bool { return m.Rows[fi].Has(t) }

// BuildMatrix computes the detection matrix of the programs over the
// fault universe.  Detection semantics are exactly
// tester.MeasureCoverage's: CheckReset is always on, so a fault counts
// for program t when the reset response or some cycle's response is
// guaranteed to differ from the program's declared expectations.
func BuildMatrix(c *netlist.Circuit, progs []tester.Program, universe []faults.Fault, opts Options) (*Matrix, error) {
	return BuildMatrixCtx(context.Background(), c, progs, universe, opts)
}

// BuildMatrixCtx is BuildMatrix with cooperative cancellation, checked
// between the underlying fault-simulation batches.
func BuildMatrixCtx(ctx context.Context, c *netlist.Circuit, progs []tester.Program, universe []faults.Fault, opts Options) (*Matrix, error) {
	seqs := make([][]uint64, len(progs))
	expected := make([][]uint64, len(progs))
	resetExp := make([]uint64, len(progs))
	for i, p := range progs {
		seqs[i] = p.Patterns
		expected[i] = p.Expected
		resetExp[i] = p.ResetExpected
	}
	rows, stats, err := fsim.DetectionMatrixCtx(ctx, c, universe, seqs, expected, resetExp,
		fsim.Options{CheckReset: true})
	if err != nil {
		return nil, err
	}
	mx := &Matrix{NumTests: len(progs), Rows: rows, Stats: stats}
	for _, row := range rows {
		if row.Any() {
			mx.Detected++
		}
	}
	return mx, nil
}
