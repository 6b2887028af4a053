package fsim

import (
	"context"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// DetectionMatrix computes the full test × fault detection matrix of a
// sequence set in one batched pass: one mask per fault over ALL
// sequences (not just the lanes of one batch), with bit t set iff
// sequence t guarantees the fault's detection.  Sequences ride the
// lanes of consecutive 64-lane batches and each batch's lane word is
// stored at its base offset — every base is a multiple of 64, so the
// batch fills exactly one mask word.  NoDrop is forced: a matrix pass
// must answer every (test, fault) cell, not stop at first detection;
// everything else (CheckReset, engine, workers, collapsing) follows
// opts.
// With opts.CheckReset on, a reset-observation detection is charged to
// the lane whose declared ResetExpected (or the good machine's own
// reset response, when resetExpected is nil) it violates — exactly the
// per-program comparison tester.MeasureCoverage performs.  An empty
// sequence set yields all-empty masks: with no program there is no
// lane to charge a detection to.
func DetectionMatrix(c *netlist.Circuit, universe []faults.Fault, seqs, expected [][]uint64, resetExpected []uint64, opts Options) ([]LaneMask, Stats, error) {
	return DetectionMatrixCtx(context.Background(), c, universe, seqs, expected, resetExpected, opts)
}

// DetectionMatrixCtx is DetectionMatrix with cooperative cancellation,
// checked between batches.  A cancelled pass returns
// ctx.Err() and no matrix: a partial matrix would silently claim the
// unsimulated cells are non-detections.
func DetectionMatrixCtx(ctx context.Context, c *netlist.Circuit, universe []faults.Fault, seqs, expected [][]uint64, resetExpected []uint64, opts Options) ([]LaneMask, Stats, error) {
	opts.NoDrop = true
	s, err := New(c, universe, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	rows := make([]LaneMask, len(universe))
	if len(seqs) == 0 {
		return rows, s.Stats(), nil
	}
	words := (len(seqs) + 63) / 64
	err = s.SimulateSequencesCtx(ctx, seqs, expected, resetExpected, func(base int, br *BatchResult) {
		for fi, lm := range br.Lanes {
			if lm == 0 {
				continue
			}
			if rows[fi] == nil {
				rows[fi] = make(LaneMask, words)
			}
			rows[fi][base/Lanes] = lm
		}
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return rows, s.Stats(), nil
}
