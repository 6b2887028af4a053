package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// goldenDigests pins what generation decides at seed 1, as two
// digests per case: detect hashes every per-fault detection (Detected,
// Phase, TestIndex) and every test sequence; search hashes how the
// faults left undetected were settled (the Untestable and Aborted
// flags) and the fallback count.  A change that only alters how the
// flows search — skipping faults proven untestable, say — moves search
// digests but must leave every detect digest in place.  The cases
// cover the CSSG flow on Table-1 circuits under both stuck-at models
// (and the transition model on one), at default options and with the
// random phase skipped so the three-phase fallback and the collateral
// screens carry the run; the CSSG flow on s27, a corpus circuit whose
// fallback both finds tests and aborts; and the direct flow on s27.
var goldenDigests = map[string]struct{ detect, search string }{
	"cssg/seq4/output":              {"840c4995df5c5f8f", "48e2505ce0b55f0d"},
	"cssg/seq4/input":               {"313c603fe04f10db", "5d83c4e8aa8f00c5"},
	"cssg/seq4/output/norandom":     {"4106f1009d655106", "b55a60d85878887a"},
	"cssg/seq4/input/norandom":      {"ed5d4a47da7b62f6", "986e9952f76080ff"},
	"cssg/ebergen/output":           {"7c996381f0042928", "82644d451d97df1c"},
	"cssg/ebergen/input":            {"df755a40569cc4e8", "fba7e216e3e71a37"},
	"cssg/ebergen/output/norandom":  {"ba146e2b7dc5aa97", "cbce94252c90dfa5"},
	"cssg/ebergen/input/norandom":   {"6e27c73f03c62876", "585cba23745f61b7"},
	"cssg/chu150/input/norandom":    {"40885c92b9f4c3fc", "7706801e83fe1d28"},
	"cssg/seq4/transition/norandom": {"4d445646c3b7a761", "1d16a6d3fa799e65"},
	"cssg/s27/input":                {"cde231a5cfc703f2", "80248cb88d0fd964"},
	"direct/s27/output":             {"1599ee43d9197d25", "6d00e4112e80a719"},
	"direct/s27/input":              {"0ddf298caae1e40f", "aa56e1a6c5468466"},
	"direct/s27/input/short":        {"15a766a524328e52", "aa56e1a6c5468466"},
}

// TestGenerationGoldenDigest is the tripwire for changes that claim to
// leave generation byte-identical (a new screen engine, a refactor of
// the phase loops): any moved verdict, test or counter changes one of
// the two digests.  A change that alters generation on purpose must say so and
// update the digests here.  The direct/s27 search digests were
// re-pinned when both flows began proving faults.Unobservable faults
// untestable up front: those faults gained the Untestable flag, while
// every detect digest stayed put.  Deleting the PODEM phase re-pinned
// every case to its value with that phase skipped: the norandom cases
// kept their coverage with up to one more test and a few more fallback
// calls, and direct/s27/input/short fell from 18 to 9 covered faults.
func TestGenerationGoldenDigest(t *testing.T) {
	si := map[string]*core.CSSG{}
	for _, bm := range circuits.SpeedIndependent() {
		switch bm.Name {
		case "seq4", "ebergen", "chu150":
			g, err := core.Build(bm.Circuit, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			si[bm.Name] = g
		}
	}
	src, err := os.ReadFile("../../examples/iscas/s27.ckt")
	if err != nil {
		t.Fatal(err)
	}
	s27, err := netlist.ParseString(string(src), "s27")
	if err != nil {
		t.Fatal(err)
	}
	if si["s27"], err = core.Build(s27, core.Options{}); err != nil {
		t.Fatal(err)
	}
	models := map[string]faults.Type{
		"output": faults.OutputSA, "input": faults.InputSA, "transition": faults.Transition,
	}
	for key, want := range goldenDigests {
		parts := strings.Split(key, "/")
		opts := Options{Seed: 1}
		if len(parts) > 3 {
			switch parts[3] {
			case "norandom":
				opts.SkipRandom = true
			case "short":
				opts.RandomSequences, opts.RandomLength = 4, 4
			}
		}
		m := models[parts[2]]
		var res *Result
		if parts[0] == "direct" {
			if res, err = RunDirectCtx(context.Background(), s27, m, faults.Universe(s27, m), opts); err != nil {
				t.Fatal(err)
			}
		} else {
			res = runModel(si[parts[1]], m, opts)
		}
		detect, search := resultDigests(res)
		if detect != want.detect {
			t.Errorf("%s: detection digest %s, want %s", key, detect, want.detect)
		}
		if search != want.search {
			t.Errorf("%s: search digest %s, want %s", key, search, want.search)
		}
	}
}

// resultDigests hashes the decisions of one run (timings and the
// fault simulator's work counters are excluded): detect covers the
// per-fault detections and the test sequences, search the verdicts on
// undetected faults and the fallback calls.
func resultDigests(r *Result) (detect, search string) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	digest := func(fill func(put func(vs ...int64))) string {
		h := sha256.New()
		fill(func(vs ...int64) {
			for _, v := range vs {
				binary.Write(h, binary.LittleEndian, v)
			}
		})
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	detect = digest(func(put func(vs ...int64)) {
		put(int64(len(r.PerFault)))
		for _, fr := range r.PerFault {
			put(b2i(fr.Detected), int64(fr.Phase), int64(fr.TestIndex))
		}
		put(int64(len(r.Tests)))
		for _, tst := range r.Tests {
			put(int64(len(tst.Patterns)))
			for i, p := range tst.Patterns {
				put(int64(p), int64(tst.Expected[i]))
			}
		}
	})
	search = digest(func(put func(vs ...int64)) {
		put(int64(len(r.PerFault)))
		for _, fr := range r.PerFault {
			put(b2i(fr.Untestable), b2i(fr.Aborted))
		}
		put(int64(r.Fallback))
	})
	return detect, search
}
