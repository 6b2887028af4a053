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

// goldenDigests pins what generation decides at seed 1: every per-fault
// verdict, every test sequence, the PODEM counters and the fallback
// count.  The cases cover the CSSG flow on Table-1 circuits under both
// stuck-at models (and the transition model on one), at default
// options and with the random phase skipped so PODEM, the three-phase
// fallback and the collateral screens carry the run, plus the direct
// flow on s27.
var goldenDigests = map[string]string{
	"cssg/seq4/output":              "608b5da6be2a1e33",
	"cssg/seq4/input":               "480a9b5c2f75a1be",
	"cssg/seq4/output/norandom":     "296730925648eefd",
	"cssg/seq4/input/norandom":      "af94520cd8aa1cfb",
	"cssg/ebergen/output":           "a8542e383a9009b7",
	"cssg/ebergen/input":            "070e155c1eb89b24",
	"cssg/ebergen/output/norandom":  "65f1533cc3931a86",
	"cssg/ebergen/input/norandom":   "0224931ad72e1e67",
	"cssg/chu150/input/norandom":    "44804eb8b4c9ccc3",
	"cssg/seq4/transition/norandom": "c40e7e8613343a71",
	"direct/s27/output":             "9939348cfedb06fd",
	"direct/s27/input":              "6fc1de49ff2af253",
	"direct/s27/input/short":        "cabb4eb5afed8a27",
}

// TestGenerationGoldenDigest is the tripwire for changes that claim to
// leave generation byte-identical (a new screen engine, a refactor of
// the phase loops): any moved verdict, test or counter changes the
// digest.  Every case runs at both lane widths, which must agree.  A
// change that alters generation on purpose must say so and update the
// digests here.
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
			if got := resultDigest(res); got != want {
				t.Errorf("%s at %d lanes: generation digest %s, want %s", key, lanes, got, want)
			}
		}
	}
}

// resultDigest hashes the decisions of one run: per-fault verdicts,
// test sequences, PODEM counters and fallback calls (timings and the
// fault simulator's work counters are excluded).
func resultDigest(r *Result) string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	put(int64(len(r.PerFault)))
	for _, fr := range r.PerFault {
		put(b2i(fr.Detected), int64(fr.Phase), int64(fr.TestIndex), b2i(fr.Untestable), b2i(fr.Aborted))
	}
	put(int64(len(r.Tests)))
	for _, tst := range r.Tests {
		put(int64(len(tst.Patterns)))
		for i, p := range tst.Patterns {
			put(int64(p), int64(tst.Expected[i]))
		}
	}
	put(int64(r.Podem.Targeted), int64(r.Podem.Found), r.Podem.Decisions, r.Podem.Backtracks, r.Podem.Settles)
	put(int64(r.Fallback))
	return hex.EncodeToString(h.Sum(nil))[:16]
}
