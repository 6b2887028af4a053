package satpg

// Parity and cancellation suite of the deterministic PODEM phase and
// the context-aware Run facade.
//
// The phase's contract is strictly additive: it runs after the random
// walks, so switching it on must never change the verdict of a fault
// the random phase already detected — same Detected, same Phase, same
// TestIndex (podem tests are appended after every random test, so
// random test indices are stable).  The suite pins that across random
// circuits and the ISCAS corpus, for stuck-at, transition and combined
// universes, in both flows.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/randckt"
)

func loadISCASCircuit(t *testing.T, name string) *Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("examples", "iscas", name+".ckt"))
	if err != nil {
		t.Skipf("corpus circuit %s unavailable: %v", name, err)
	}
	defer f.Close()
	c, err := ParseCircuit(f, name)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

func randomCircuit(t *testing.T, seed int64) *Circuit {
	t.Helper()
	for ; seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if c, ok := randckt.New(rng, randckt.Config{MinInputs: 3, MaxInputs: 4, MinGates: 10, MaxGates: 16}); ok {
			return c
		}
	}
	t.Fatal("no stable random circuit found")
	return nil
}

// randomTestIndices collects the test indices the random phase
// produced in a result: the TestIndex of every PhaseRandom verdict.
// Collateral (PhaseSim) detections of random tests share those
// indices; later phases' tests have indices outside the set.
func randomTestIndices(res *Result) map[int]bool {
	tis := make(map[int]bool)
	for _, fr := range res.PerFault {
		if fr.Detected && fr.Phase == atpg.PhaseRandom {
			tis[fr.TestIndex] = true
		}
	}
	return tis
}

// assertRandomVerdictsPreserved checks the additive contract: every
// fault the random-only run detected via a random test (directly or as
// fault-sim collateral) carries the identical verdict in the
// random+PODEM run, and the PODEM run never covers less.
func assertRandomVerdictsPreserved(t *testing.T, label string, off, on *Result) {
	t.Helper()
	if off.Total != on.Total {
		t.Fatalf("%s: universes differ: %d vs %d faults", label, off.Total, on.Total)
	}
	randomTIs := randomTestIndices(off)
	checked := 0
	for fi, offFR := range off.PerFault {
		if !offFR.Detected || !randomTIs[offFR.TestIndex] {
			continue
		}
		checked++
		onFR := on.PerFault[fi]
		if !onFR.Detected {
			t.Errorf("%s: fault %d detected by the random phase but undetected with PODEM on", label, fi)
			continue
		}
		if onFR.Phase != offFR.Phase || onFR.TestIndex != offFR.TestIndex {
			t.Errorf("%s: fault %d verdict changed: phase %s test %d -> phase %s test %d",
				label, fi, offFR.Phase, offFR.TestIndex, onFR.Phase, onFR.TestIndex)
		}
	}
	if on.Covered < off.Covered {
		t.Errorf("%s: PODEM run covers less: %d vs %d", label, on.Covered, off.Covered)
	}
	if checked == 0 && off.Covered > 0 {
		t.Logf("%s: random phase detected nothing to compare", label)
	}
	// Every random test is shared; the PODEM run may only append.
	for ti := range randomTIs {
		if ti >= len(on.Tests) {
			t.Fatalf("%s: random test %d missing from the PODEM run (%d tests)", label, ti, len(on.Tests))
		}
		offT, onT := off.Tests[ti], on.Tests[ti]
		if len(offT.Patterns) != len(onT.Patterns) {
			t.Fatalf("%s: random test %d differs between runs", label, ti)
		}
		for cyc := range offT.Patterns {
			if offT.Patterns[cyc] != onT.Patterns[cyc] || offT.Expected[cyc] != onT.Expected[cyc] {
				t.Fatalf("%s: random test %d cycle %d differs between runs", label, ti, cyc)
			}
		}
	}
}

func paritySelections() []FaultSelection {
	return []FaultSelection{SelectStuckAt, SelectTransition, SelectBoth}
}

// A starved random phase leaves leftovers for PODEM; the parity
// contract must hold regardless of how much PODEM then adds.  The
// decision budget is tightened to keep the suite's wall time sane on
// the bigger corpus members — the contract is budget-independent.
func parityOptions(sel FaultSelection) Options {
	return Options{Seed: 3, RandomSequences: 8, RandomLength: 8, Faults: sel, PodemBudget: 96}
}

func TestPodemParityCSSGFlow(t *testing.T) {
	t.Parallel() // with the other long suites; see TestDirectFlowOracleOnCorpus
	circuits := []*Circuit{
		mustBenchmark(t, "fig1a"),
		mustBenchmark(t, "si/chu150"),
		randomCircuit(t, 1),
	}
	if !testing.Short() {
		circuits = append(circuits, loadISCASCircuit(t, "s27"))
	}
	for _, c := range circuits {
		g, err := Abstract(c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, sel := range paritySelections() {
			opts := parityOptions(sel)
			offOpts := opts
			offOpts.SkipPodem = true
			off, err := GenerateCtx(context.Background(), g, InputStuckAt, offOpts)
			if err != nil {
				t.Fatalf("%s sel=%v off: %v", c.Name, sel, err)
			}
			on, err := GenerateCtx(context.Background(), g, InputStuckAt, opts)
			if err != nil {
				t.Fatalf("%s sel=%v on: %v", c.Name, sel, err)
			}
			assertRandomVerdictsPreserved(t, c.Name+"/cssg", off, on)
		}
	}
}

func TestPodemParityDirectFlow(t *testing.T) {
	t.Parallel() // with the other long suites; see TestDirectFlowOracleOnCorpus
	circuits := []*Circuit{
		mustBenchmark(t, "fig1a"),
		mustBenchmark(t, "si/master-read"),
		randomCircuit(t, 2),
	}
	if !testing.Short() {
		circuits = append(circuits, loadISCASCircuit(t, "s27"), loadISCASCircuit(t, "s953"))
	}
	for _, c := range circuits {
		for _, sel := range paritySelections() {
			// The largest corpus member runs the stuck-at universe only:
			// the transition/both dimensions are exercised on the smaller
			// circuits, and tripling s953's PODEM targets buys no new
			// coverage of the contract.
			if c.NumSignals() > MaxExplicitSignals && sel != SelectStuckAt {
				continue
			}
			opts := parityOptions(sel)
			offOpts := opts
			offOpts.SkipPodem = true
			off := runDirect(t, c, InputStuckAt, offOpts)
			on := runDirect(t, c, InputStuckAt, opts)
			assertRandomVerdictsPreserved(t, c.Name+"/direct", off, on)
		}
	}
}

func mustBenchmark(t *testing.T, ref string) *Circuit {
	t.Helper()
	c, err := LoadBenchmark(ref)
	if err != nil {
		t.Fatalf("benchmark %s: %v", ref, err)
	}
	return c
}

// A pre-cancelled context returns within one batch/decision boundary
// with a structurally valid partial result in both flows.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, flow := range []Flow{FlowCSSG, FlowDirect} {
		c := mustBenchmark(t, "si/chu150")
		res, err := Run(ctx, c, InputStuckAt, Options{Flow: flow, Faults: SelectBoth})
		if err == nil {
			t.Fatalf("flow=%s: cancelled Run returned no error", flow)
		}
		if res == nil {
			t.Fatalf("flow=%s: cancelled Run returned no partial result", flow)
		}
		if res.Total == 0 {
			t.Fatalf("flow=%s: partial result lost the universe", flow)
		}
		for fi, fr := range res.PerFault {
			if fr.Detected && (fr.TestIndex < 0 || fr.TestIndex >= len(res.Tests)) {
				t.Fatalf("flow=%s: fault %d claims out-of-range test %d", flow, fi, fr.TestIndex)
			}
		}
	}
}

// Cancelling mid-run returns promptly and leaks no goroutines: the
// direct flow's walk-generation workers and the fault-sim shards must
// all drain.
func TestRunCancellationStopsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	c := loadISCASCircuit(t, "s953")
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		// A deliberately huge workload: only cancellation ends it early.
		res, runErr = Run(ctx, c, InputStuckAt, Options{
			Flow: FlowDirect, Faults: SelectBoth,
			RandomSequences: 1 << 16, RandomLength: 48,
		})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Run did not return within 30s")
	}
	if runErr == nil {
		t.Fatal("cancelled Run reported success on a workload sized to outlive the test")
	}
	if res == nil || res.Total == 0 {
		t.Fatal("cancelled Run returned no partial result")
	}
	// Goroutines wind down asynchronously after the flow returns; allow
	// a grace period before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, runtime.NumGoroutine())
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"negative workers", Options{FaultSimWorkers: -1}},
		{"bad lane width", Options{FaultSimLanes: 96}},
		{"removed lane width", Options{FaultSimLanes: 128}},
		{"unknown flow", Options{Flow: Flow(9)}},
		{"negative K", Options{K: -1}},
		{"negative podem budget", Options{PodemBudget: -5}},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opts)
		}
	}
	if err := (Options{FaultSimLanes: 128}).Validate(); err == nil || !strings.Contains(err.Error(), "64 or 256") {
		t.Errorf("128 lanes: Validate error %v, want one listing 64 or 256", err)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	c := mustBenchmark(t, "fig1a")
	if _, err := Run(context.Background(), c, InputStuckAt, Options{FaultSimLanes: 100}); err == nil {
		t.Error("Run accepted an invalid lane width")
	}
}
