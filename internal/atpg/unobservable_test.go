package atpg

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// soundnessConfig bounds the random circuits of the structural-proof
// soundness checks: small enough for the CSSG's 64-signal ceiling and
// for exhaustive product searches, with enough feedback that the
// unobservable logic includes loops.
var soundnessConfig = randckt.Config{MinGates: 4, MaxGates: 20, FeedbackProb: 0.4}

// soundnessOptions caps the searches of the soundness checks.  The
// tight faulty-set cap aborts the few oscillating faulty circuits whose
// exact state sets explode (at the default cap of 1024 a handful of
// them take seconds each); on 200 circuits it still lets the search
// conclude untestable for all but about 2% of the marked faults.
var soundnessOptions = Options{MaxFaultySet: 64}

// checkUnobservableUntestable runs the exhaustive three-phase search
// on every fault faults.Unobservable marks in the output, input and
// transition universes of c, and fails if it finds a test for any of
// them.  It returns how many marked faults it checked.
func checkUnobservableUntestable(t *testing.T, c *netlist.Circuit) int {
	t.Helper()
	g, err := core.Build(c, core.Options{})
	if err != nil {
		return 0
	}
	checked := 0
	for _, model := range []faults.Type{faults.OutputSA, faults.InputSA, faults.Transition} {
		for _, f := range faults.Universe(c, model) {
			if !faults.Unobservable(c, f) {
				continue
			}
			checked++
			if test, outcome := GenerateTest(g, f, soundnessOptions); outcome == OutcomeFound {
				t.Fatalf("%s: exhaustive search found %v for %s, which faults.Unobservable proves untestable\n%s",
					c.Name, test.Patterns, f.Describe(c), c.String())
			}
		}
	}
	return checked
}

// TestUnobservableFaultsUntestable is the soundness check of the
// structural proof both flows apply before searching: on seeded random
// circuits the exact product search, which decides testability under
// the model, must never find a test for a fault faults.Unobservable
// marks (it proves them untestable or hits a cap).
func TestUnobservableFaultsUntestable(t *testing.T) {
	circuits := 200
	if testing.Short() {
		circuits = 40
	}
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for n := 0; n < circuits; n++ {
		c, ok := randckt.New(rng, soundnessConfig)
		if !ok {
			continue
		}
		checked += checkUnobservableUntestable(t, c)
	}
	if checked == 0 {
		t.Fatal("no circuit had an unobservable fault: the check is vacuous")
	}
	t.Logf("%d unobservable faults checked on %d circuits", checked, circuits)
}

// FuzzUnobservableUntestable drives the same soundness property over
// fuzzer-chosen circuit seeds, sizes and feedback densities.
func FuzzUnobservableUntestable(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40))
	f.Add(int64(5), uint8(20), uint8(80))
	f.Add(int64(23), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, gates, feedback uint8) {
		cfg := soundnessConfig
		cfg.MaxGates = cfg.MinGates + int(gates%17)
		cfg.FeedbackProb = 0.05 + float64(feedback%90)/100
		c, ok := randckt.New(rand.New(rand.NewSource(seed)), cfg)
		if !ok {
			t.Skip("no stable circuit for this seed")
		}
		checkUnobservableUntestable(t, c)
	})
}

// TestFlowsProveUnobservableUntestable pins how both flows report the
// structural proof: exactly the faults.Unobservable faults carry
// Unobservable, each of them is Untestable and undetected, and the
// Result counts agree with the per-fault flags.
func TestFlowsProveUnobservableUntestable(t *testing.T) {
	check := func(label string, c *netlist.Circuit, res *Result) {
		t.Helper()
		want := 0
		for _, fr := range res.PerFault {
			marked := faults.Unobservable(c, fr.Fault)
			if fr.Unobservable != marked {
				t.Fatalf("%s: %s Unobservable=%v, faults.Unobservable=%v", label, fr.Fault.Describe(c), fr.Unobservable, marked)
			}
			if marked {
				want++
				if !fr.Untestable || fr.Detected || fr.Aborted {
					t.Fatalf("%s: unobservable %s reported %+v", label, fr.Fault.Describe(c), fr)
				}
			}
		}
		if res.Unobservable != want || res.Covered+res.Untestable+res.Aborted > res.Total {
			t.Fatalf("%s: counts inconsistent with the per-fault flags (%d unobservable): %s", label, want, res.Summary())
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
	for _, model := range []faults.Type{faults.OutputSA, faults.InputSA} {
		res, err := RunDirectCtx(context.Background(), s27, model, faults.Universe(s27, model), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Unobservable == 0 {
			t.Fatalf("s27 model %d: expected dead logic to be proved untestable: %s", model, res.Summary())
		}
		check("direct/s27", s27, res)
	}
	rng := rand.New(rand.NewSource(3))
	found := 0
	for n := 0; n < 30; n++ {
		c, ok := randckt.New(rng, soundnessConfig)
		if !ok {
			continue
		}
		g, err := core.Build(c, core.Options{})
		if err != nil {
			continue
		}
		opts := soundnessOptions
		opts.RandomSequences, opts.RandomLength, opts.MaxProductStates = 16, 8, 2000
		res := runModel(g, faults.InputSA, opts)
		found += res.Unobservable
		check("cssg/"+c.Name, c, res)
	}
	if found == 0 {
		t.Fatal("no random circuit had an unobservable fault: the CSSG-flow check is vacuous")
	}
}
