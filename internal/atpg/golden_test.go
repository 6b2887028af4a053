package atpg

import (
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
// flags), the PODEM counters and the fallback count.  A change that
// only alters how the flows search — skipping faults proven
// untestable, say — moves search digests but must leave every detect
// digest in place.  The cases cover the CSSG flow on Table-1 circuits
// under both stuck-at models (and the transition model on one), at
// default options and with the random phase skipped so PODEM, the
// three-phase fallback and the collateral screens carry the run, plus
// the direct flow on s27.
var goldenDigests = map[string]struct{ detect, search string }{
	"cssg/seq4/output":              {"840c4995df5c5f8f", "2faa47241793d742"},
	"cssg/seq4/input":               {"313c603fe04f10db", "4d5a5974f6a89a66"},
	"cssg/seq4/output/norandom":     {"8a2144cef1dae8d5", "a5a016ac82f09ed4"},
	"cssg/seq4/input/norandom":      {"5584c58f847250bf", "a6c2a2bec7734a89"},
	"cssg/ebergen/output":           {"7c996381f0042928", "8d75e984fabc7945"},
	"cssg/ebergen/input":            {"df755a40569cc4e8", "d6f9a6a19686ab61"},
	"cssg/ebergen/output/norandom":  {"b44b9b3177f59326", "99926b8cfc9e9288"},
	"cssg/ebergen/input/norandom":   {"65484810ff9e289f", "010dc03b157a5f3f"},
	"cssg/chu150/input/norandom":    {"f50f78965de02d3d", "f17355b714a3ef99"},
	"cssg/seq4/transition/norandom": {"6afbe1f91a9d3cb2", "20b9e93a6d2d54e0"},
	"direct/s27/output":             {"1599ee43d9197d25", "84ffc924592caef8"},
	"direct/s27/input":              {"0ddf298caae1e40f", "6de5f407006e1a67"},
	"direct/s27/input/short":        {"eb42315d97ee1a85", "191b78503ec99aff"},
}

// TestGenerationGoldenDigest is the tripwire for changes that claim to
// leave generation byte-identical (a new screen engine, a refactor of
// the phase loops): any moved verdict, test or counter changes one of
// the two digests.  Every case runs at both lane widths, which must
// agree.  A change that alters generation on purpose must say so and
// update the digests here.  The direct/s27 search digests were
// re-pinned when both flows began proving faults.Unobservable faults
// untestable up front: those faults gained the Untestable flag and
// left PODEM's targets, while every detect digest stayed put.
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
		for _, lanes := range []int{64, 256} {
			opts.FaultSimLanes = lanes
			var res *Result
			if parts[0] == "direct" {
				if res, err = RunDirect(s27, m, faults.Universe(s27, m), opts); err != nil {
					t.Fatal(err)
				}
			} else {
				res = Run(si[parts[1]], m, opts)
			}
			detect, search := resultDigests(res)
			if detect != want.detect {
				t.Errorf("%s at %d lanes: detection digest %s, want %s", key, lanes, detect, want.detect)
			}
			if search != want.search {
				t.Errorf("%s at %d lanes: search digest %s, want %s", key, lanes, search, want.search)
			}
		}
	}
}

// resultDigests hashes the decisions of one run (timings and the
// fault simulator's work counters are excluded): detect covers the
// per-fault detections and the test sequences, search the verdicts on
// undetected faults, the PODEM counters and the fallback calls.
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
		put(int64(r.Podem.Targeted), int64(r.Podem.Found), r.Podem.Decisions, r.Podem.Backtracks, r.Podem.Settles)
		put(int64(r.Fallback))
	})
	return detect, search
}
