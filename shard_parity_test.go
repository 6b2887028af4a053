package satpg

import (
	"math/rand"
	"testing"

	"repro/internal/randckt"
)

// The shard parity suite: a coverage measurement cut into N fault-class
// shards (FaultSimBatchShard) and folded back together
// (MergeCoverageShards) must be bit-identical to the single-process
// FaultSimBatch — per fault, not just in aggregate.  This is the
// correctness contract the distributed satpgd coordinator rests on.

// shardCircuits returns the parity corpus: one multi-word random
// feedback circuit plus the committed ISCAS translations.
func shardCircuits(t *testing.T) map[string]*Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	rc, ok := randckt.New(rng, randckt.Config{
		MinInputs: 4, MaxInputs: 6,
		MinGates: 60, MaxGates: 90,
	})
	if !ok {
		t.Fatal("no stable random circuit at seed 41")
	}
	ckts := map[string]*Circuit{
		"randckt": rc,
		"s27":     loadCorpus(t, "s27.ckt"),
	}
	if !testing.Short() {
		ckts["s349"] = loadCorpus(t, "s349.ckt")
	}
	return ckts
}

// assertShardParity measures `tests` under `sel` whole and in
// 1/2/4-way shard partitions, and requires every per-fault verdict of
// every merged report to equal the unsharded one exactly.
func assertShardParity(t *testing.T, name string, c *Circuit, sel FaultSelection, tests []Test) {
	t.Helper()
	opts := Options{Faults: sel}
	whole, err := FaultSimBatch(c, InputStuckAt, tests, opts)
	if err != nil {
		t.Fatalf("%s/%v: %v", name, sel, err)
	}
	for _, shards := range []int{1, 2, 4} {
		reports := make([]*CoverageReport, shards)
		for s := 0; s < shards; s++ {
			reports[s], err = FaultSimBatchShard(c, InputStuckAt, tests, s, shards, opts)
			if err != nil {
				t.Fatalf("%s/%v shard %d/%d: %v", name, sel, s, shards, err)
			}
		}
		merged, err := MergeCoverageShards(reports)
		if err != nil {
			t.Fatalf("%s/%v merge %d shards: %v", name, sel, shards, err)
		}
		if merged.Total != whole.Total || merged.Detected != whole.Detected {
			t.Errorf("%s/%v %d shards: merged cov %d/%d, single-process %d/%d",
				name, sel, shards, merged.Detected, merged.Total, whole.Detected, whole.Total)
		}
		for fi := range whole.PerFault {
			w, m := whole.PerFault[fi], merged.PerFault[fi]
			if w.Detected != m.Detected || w.TestIndex != m.TestIndex || w.Cycle != m.Cycle {
				t.Errorf("%s/%v %d shards fault %s: merged {det=%v test=%d cyc=%d} single {det=%v test=%d cyc=%d}",
					name, sel, shards, w.Fault.Describe(c),
					m.Detected, m.TestIndex, m.Cycle, w.Detected, w.TestIndex, w.Cycle)
			}
		}
		// The shard partition itself must be disjoint and covering —
		// MergeCoverageShards enforces it, but assert the per-shard
		// universes really were restricted (every multi-shard report
		// leaves some faults unowned on a non-trivial universe).
		if shards > 1 && whole.Total > 1 {
			for s, r := range reports {
				owned := 0
				for _, o := range r.Owned {
					if o {
						owned++
					}
				}
				if owned == whole.Total {
					t.Errorf("%s/%v shard %d/%d owns the whole universe — no partition happened",
						name, sel, s, shards)
				}
			}
		}
	}
}

// TestShardParityAcrossModels: verdict bitsets folded from 1, 2 and 4
// shards must match the single-process run for every (fault, test)
// pair, on random feedback circuits and the ISCAS corpus, under the
// stuck-at, transition, and combined universes.
func TestShardParityAcrossModels(t *testing.T) {
	for name, c := range shardCircuits(t) {
		res := runDirect(t, c, InputStuckAt, Options{Seed: 5, RandomSequences: 24, RandomLength: 10})
		if len(res.Tests) == 0 {
			t.Fatalf("%s: direct flow produced no tests", name)
		}
		for _, sel := range []FaultSelection{SelectStuckAt, SelectTransition, SelectBoth} {
			assertShardParity(t, name, c, sel, res.Tests)
		}
	}
}

// TestShardParityWithoutExpected exercises the service-shaped form of
// the same contract: bare pattern programs (no declared responses) are
// judged against the good machine's own outputs, and sharding must not
// change a single verdict there either.
func TestShardParityWithoutExpected(t *testing.T) {
	c := loadCorpus(t, "s27.ckt")
	rng := rand.New(rand.NewSource(17))
	mask := uint64(1)<<uint(c.NumInputs()) - 1
	tests := make([]Test, 96)
	for i := range tests {
		pats := make([]uint64, 8)
		for j := range pats {
			pats[j] = rng.Uint64() & mask
		}
		tests[i] = Test{Patterns: pats}
	}
	assertShardParity(t, "s27-bare", c, SelectBoth, tests)
}

// TestShardRangeRejected: out-of-range shard indices fail loudly.
func TestShardRangeRejected(t *testing.T) {
	c := loadCorpus(t, "s27.ckt")
	tests := []Test{{Patterns: []uint64{1, 2, 3}}}
	for _, tc := range []struct{ shard, shards int }{{2, 2}, {-1, 2}, {4, 4}} {
		if _, err := FaultSimBatchShard(c, InputStuckAt, tests, tc.shard, tc.shards, Options{}); err == nil {
			t.Errorf("shard %d/%d accepted; want out-of-range error", tc.shard, tc.shards)
		}
	}
}
