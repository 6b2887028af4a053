package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

func TestLaneMaskCountAndContainedIn(t *testing.T) {
	cases := []struct {
		m, o      LaneMask
		count     int
		contained bool
	}{
		{nil, nil, 0, true},
		{LaneMask{0b1011}, LaneMask{0b1111}, 3, true},
		{LaneMask{0b1011}, LaneMask{0b0011}, 3, false},
		{LaneMask{0, 1 << 5}, LaneMask{0, 1 << 5, 7}, 1, true},
		{LaneMask{0, 0, 1}, LaneMask{^uint64(0), ^uint64(0)}, 1, false},
		{LaneMask{0, 0}, LaneMask{1}, 0, true},
	}
	for i, tc := range cases {
		if got := tc.m.Count(); got != tc.count {
			t.Errorf("case %d: Count() = %d, want %d", i, got, tc.count)
		}
		if got := tc.m.ContainedIn(tc.o); got != tc.contained {
			t.Errorf("case %d: ContainedIn = %v, want %v", i, got, tc.contained)
		}
	}
}

// TestDetectionMatrixRaggedTrailingBatches pins the multi-batch fold on
// sequence counts that leave the final batch partially filled and the
// final mask word partially used (65 and 129 sequences at 64 lanes,
// every count at 256).  Each row must agree bit for bit with a
// per-sequence reference (one matrix pass per single sequence), carry
// no phantom lanes at or past the sequence count — a padded lane
// leaking into the fold would inflate LaneMask.Count and flip
// ContainedIn verdicts, which compaction's coverage argument rests on —
// and round-trip through Count/ContainedIn consistently.
func TestDetectionMatrixRaggedTrailingBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c *netlist.Circuit
	for {
		cand, ok := randckt.New(rng, randckt.Config{})
		if ok {
			c = cand
			break
		}
	}
	m := c.NumInputs()
	const maxSeq, cycles = 129, 4
	all := make([][]uint64, maxSeq)
	for l := range all {
		seq := make([]uint64, cycles)
		for tc := range seq {
			seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
		}
		all[l] = seq
	}
	universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)

	// Per-sequence reference: sequence t detects fault fi iff a
	// single-sequence pass says so.
	ref := make([][]bool, len(universe))
	for fi := range ref {
		ref[fi] = make([]bool, maxSeq)
	}
	for l := 0; l < maxSeq; l++ {
		rows, _, err := DetectionMatrix(c, universe, all[l:l+1], nil, nil, Options{CheckReset: true})
		if err != nil {
			t.Fatal(err)
		}
		for fi := range universe {
			ref[fi][l] = rows[fi].Has(0)
		}
	}

	counts := []int{1, 63, 65, 100, 129}
	if testing.Short() {
		counts = []int{65, 129}
	}
	for _, nseq := range counts {
		for _, lanes := range []int{64, 256} {
			rows, _, err := DetectionMatrix(c, universe, all[:nseq], nil, nil,
				Options{Lanes: lanes, CheckReset: true})
			if err != nil {
				t.Fatal(err)
			}
			words := (nseq + 63) / 64
			for fi := range universe {
				if len(rows[fi]) > words {
					t.Fatalf("nseq=%d lanes=%d fault %s: row spans %d words, matrix width is %d",
						nseq, lanes, universe[fi].Describe(c), len(rows[fi]), words)
				}
				wantCount := 0
				for l := 0; l < nseq; l++ {
					if rows[fi].Has(l) != ref[fi][l] {
						t.Fatalf("nseq=%d lanes=%d fault %s seq %d: matrix %v, per-sequence reference %v",
							nseq, lanes, universe[fi].Describe(c), l, rows[fi].Has(l), ref[fi][l])
					}
					if ref[fi][l] {
						wantCount++
					}
				}
				for l := nseq; l < len(rows[fi])*64; l++ {
					if rows[fi].Has(l) {
						t.Fatalf("nseq=%d lanes=%d fault %s: phantom lane %d past the sequence count",
							nseq, lanes, universe[fi].Describe(c), l)
					}
				}
				if got := rows[fi].Count(); got != wantCount {
					t.Fatalf("nseq=%d lanes=%d fault %s: Count=%d, want %d detecting sequences",
						nseq, lanes, universe[fi].Describe(c), got, wantCount)
				}
				// A row restricted to its own lanes is self-contained, and
				// the all-lanes mask contains every row.
				full := make(LaneMask, words)
				for l := 0; l < nseq; l++ {
					full[l>>6] |= 1 << uint(l&63)
				}
				if !rows[fi].ContainedIn(full) {
					t.Fatalf("nseq=%d lanes=%d fault %s: row not contained in the full lane set",
						nseq, lanes, universe[fi].Describe(c))
				}
			}
		}
	}
}

// TestDetectionMatrixMatchesChunkedBatches pins DetectionMatrix to a
// hand-rolled SimulateSequences accumulation: same rows at every lane
// width and engine, nonzero rows exactly for the detected faults, and
// bit-identical masks across widths (the batch layout must not leak
// into the matrix).
func TestDetectionMatrixMatchesChunkedBatches(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	const nseq, cycles = 100, 5 // >64 so the fold spans batch boundaries
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
			seq := make([]uint64, cycles)
			for tc := range seq {
				seq[tc] = rng.Uint64() & (1<<uint(m) - 1)
			}
			seqs[l] = seq
		}
		universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)

		var ref []LaneMask
		for _, engine := range []EngineKind{EngineEvent, EngineSweep} {
			for _, lanes := range []int{64, 256} {
				opts := Options{Workers: 2, Lanes: lanes, Engine: engine, CheckReset: true}
				rows, stats, err := DetectionMatrix(c, universe, seqs, nil, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Patterns == 0 {
					t.Fatalf("seed %d: matrix pass applied no patterns", seed)
				}
				// Hand-rolled accumulation through the raw batch API.
				s, err := New(c, universe, Options{Workers: 2, Lanes: lanes, Engine: engine, CheckReset: true, NoDrop: true})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]LaneMask, len(universe))
				for fi := range want {
					want[fi] = make(LaneMask, (nseq+63)/64)
				}
				err = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
					for fi := range universe {
						for l := 0; base+l < nseq; l++ {
							if br.Lanes[fi].Has(l) {
								want[fi][(base+l)>>6] |= 1 << uint((base+l)&63)
							}
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for fi := range universe {
					if !rows[fi].Equal(want[fi]) {
						t.Fatalf("seed %d engine %s lanes %d fault %s: matrix row %v, chunked %v",
							seed, engine, lanes, universe[fi].Describe(c), rows[fi], want[fi])
					}
					if rows[fi].Any() != s.Detected(fi) {
						t.Fatalf("seed %d fault %s: row nonempty=%v but Detected=%v",
							seed, universe[fi].Describe(c), rows[fi].Any(), s.Detected(fi))
					}
				}
				if ref == nil {
					ref = rows
				} else {
					for fi := range universe {
						if !rows[fi].Equal(ref[fi]) {
							t.Fatalf("seed %d: engine %s lanes %d row differs from reference for fault %s",
								seed, engine, lanes, universe[fi].Describe(c))
						}
					}
				}
			}
		}

		// The empty program set has an empty matrix.
		rows, _, err := DetectionMatrix(c, universe, nil, nil, nil, Options{CheckReset: true})
		if err != nil {
			t.Fatal(err)
		}
		for fi := range rows {
			if rows[fi].Any() {
				t.Fatalf("seed %d: empty sequence set produced nonempty row for fault %d", seed, fi)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; matrix test exercised nothing")
	}
	t.Logf("matrix-tested %d random circuits", tried)
}
