package atpg

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
)

// FaultCoverage is the measured verdict for one fault.
type FaultCoverage struct {
	Fault    faults.Fault
	Detected bool
	// TestIndex is a test (index into the measured set) whose replay
	// guarantees detection; -1 when undetected or when the fault is
	// already observable at reset.  Tests are measured 64 at a time,
	// so within a batch the earliest-*cycle* detection wins
	// the attribution, not the lowest test index.
	TestIndex int
	// Cycle is the cycle of first detection within that test; -1 means
	// the reset response alone exposes the fault.
	Cycle int
}

// CoverageReport is the outcome of a batched coverage measurement.
type CoverageReport struct {
	Total    int
	Detected int
	PerFault []FaultCoverage
	Workers  int        // fault-simulation workers (GOMAXPROCS); merged reports sum them
	Classes  int        // simulated equivalence classes (≤ Total)
	Stats    fsim.Stats // applied patterns and gate evaluations
	Elapsed  time.Duration

	// Shard/Shards identify a 1-of-N partial measurement (Shards ≤ 1:
	// the full universe).  Owned[i] reports whether this shard simulated
	// universe fault i; the PerFault entries of unowned faults are the
	// undetected zero verdict and carry no information.  N partial
	// reports with disjoint, covering Owned sets merge losslessly with
	// MergeShardReports.
	Shard  int
	Shards int
	Owned  []bool
}

// Coverage returns detected/total (1 for an empty universe).
func (r *CoverageReport) Coverage() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Total)
}

// Summary renders a one-line report.
func (r *CoverageReport) Summary() string {
	return fmt.Sprintf("fsim cov=%d/%d (%.2f%%) classes=%d workers=%d gate-evals/pattern=%.1f elapsed=%v",
		r.Detected, r.Total, 100*r.Coverage(), r.Classes, r.Workers,
		r.Stats.EvalsPerPattern(), r.Elapsed.Round(time.Microsecond))
}

// CoverageOptions tunes CoverageOfCtx.
type CoverageOptions struct {
	// Shard/Shards select a 1-of-N partition of the representative
	// fault classes (fsim.Options.ShardIndex/ShardCount): the report
	// covers only the owned slice, for merging with the other shards'
	// reports via MergeShardReports.  Shards ≤ 1 measures everything.
	Shard  int
	Shards int
	// OnBatch, when set, is called after each simulated batch with the
	// base test index of the batch, the number of new detections it
	// contributed, and the cumulative detected count — the streaming
	// hook the coverage service reports per-batch progress through.
	OnBatch func(base, detections, cumDetected int)
}

// CoverageOfCtx measures the guaranteed fault coverage of a test set
// with the bit-parallel pattern-parallel engine: tests ride the lanes
// of each 64-lane fsim batch, only one representative per structural
// equivalence class is simulated, the classes are spread across
// GOMAXPROCS workers, and a fault is dropped from later batches the
// moment one test detects it.  The verdict is the conservative ternary
// one — a fault counts only when some primary output settles
// definitely opposite the expected response (or the reset response)
// under every delay assignment.  The test set may lack Expected responses: if any
// test omits them, every fault is judged against the good machine's
// own (simulated) response instead of declared ones — the form
// service-submitted bare pattern programs arrive in.
//
// Cancellation is checked between batches: a cancelled
// measurement returns ctx.Err() and no report (a partial coverage
// number is a lie — it undercounts silently).
func CoverageOfCtx(ctx context.Context, c *netlist.Circuit, universe []faults.Fault, tests []Test, opts CoverageOptions) (*CoverageReport, error) {
	start := time.Now()
	if opts.Shards > 0 && (opts.Shard < 0 || opts.Shard >= opts.Shards) {
		return nil, fmt.Errorf("atpg: shard index %d out of range for %d shards", opts.Shard, opts.Shards)
	}
	s, err := fsim.New(c, universe, fsim.Options{
		CheckReset: true,
		ShardIndex: opts.Shard, ShardCount: opts.Shards,
	})
	if err != nil {
		return nil, err
	}
	rep := &CoverageReport{
		Total:    len(universe),
		PerFault: make([]FaultCoverage, len(universe)),
		Workers:  runtime.GOMAXPROCS(0),
		Classes:  s.NumClasses(),
	}
	if opts.Shards > 0 {
		// Shards == 1 is a degenerate but valid partition (a one-worker
		// coordinator): the report still carries its ownership mask so
		// MergeShardReports accepts it.
		rep.Shard, rep.Shards = opts.Shard, opts.Shards
		rep.Owned = make([]bool, len(universe))
		for i := range universe {
			rep.Owned[i] = s.Owns(i)
		}
	}
	for i := range rep.PerFault {
		rep.PerFault[i] = FaultCoverage{Fault: universe[i], TestIndex: -1, Cycle: -1}
	}
	seqs := make([][]uint64, len(tests))
	expected := make([][]uint64, len(tests))
	haveExpected := len(tests) > 0
	for i, t := range tests {
		seqs[i] = t.Patterns
		expected[i] = t.Expected
		if t.Expected == nil {
			haveExpected = false
		}
	}
	if !haveExpected {
		expected = nil
	}
	err = s.SimulateSequencesCtx(ctx, seqs, expected, nil, func(base int, br *fsim.BatchResult) {
		n := 0
		for _, d := range br.Detections {
			fc := &rep.PerFault[d.Fault]
			if fc.Detected {
				continue
			}
			fc.Detected = true
			fc.Cycle = d.Cycle
			if d.Cycle >= 0 {
				fc.TestIndex = base + d.Lane
			}
			rep.Detected++
			n++
		}
		if opts.OnBatch != nil {
			opts.OnBatch(base, n, rep.Detected)
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Stats = s.Stats()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// MergeShardReports folds N shard reports over the same universe into
// the single-process report: each fault's verdict is taken from the
// shard that owns it.  Because faults are independent given the good
// trace, the merged per-fault verdicts (Detected/TestIndex/Cycle) are
// bit-identical to an unsharded run over the same tests — the shard
// parity tests assert it.  Counter fields sum (Stats, Workers,
// Classes); Elapsed is the maximum, matching the wall time of shards
// running concurrently.
func MergeShardReports(reports []*CoverageReport) (*CoverageReport, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("atpg: no shard reports to merge")
	}
	first := reports[0]
	merged := &CoverageReport{
		Total:    first.Total,
		PerFault: make([]FaultCoverage, first.Total),
	}
	covered := make([]bool, first.Total)
	for _, r := range reports {
		if r.Total != first.Total {
			return nil, fmt.Errorf("atpg: shard universes disagree: %d vs %d faults", r.Total, first.Total)
		}
		if r.Shards != len(reports) {
			return nil, fmt.Errorf("atpg: report claims %d shards, merging %d", r.Shards, len(reports))
		}
		if r.Owned == nil {
			return nil, fmt.Errorf("atpg: shard %d report has no ownership mask", r.Shard)
		}
		for i, own := range r.Owned {
			if !own {
				continue
			}
			if covered[i] {
				return nil, fmt.Errorf("atpg: fault %d owned by two shards", i)
			}
			covered[i] = true
			merged.PerFault[i] = r.PerFault[i]
			if r.PerFault[i].Detected {
				merged.Detected++
			}
		}
		merged.Workers += r.Workers
		merged.Classes += r.Classes
		merged.Stats.Patterns += r.Stats.Patterns
		merged.Stats.GateEvals += r.Stats.GateEvals
		merged.Stats.Allocs += r.Stats.Allocs
		merged.Stats.CacheHits += r.Stats.CacheHits
		merged.Stats.CacheMisses += r.Stats.CacheMisses
		if r.Elapsed > merged.Elapsed {
			merged.Elapsed = r.Elapsed
		}
	}
	for i, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("atpg: fault %d owned by no shard", i)
		}
	}
	return merged, nil
}
