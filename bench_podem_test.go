package satpg

// Benchmark of the deterministic bit-parallel PODEM phase on hard
// faults: the faults a starved random phase leaves undetected.  The
// podem-on/podem-off dimension rides into the BENCH artifact via
// cmd/benchjson, recording what the phase adds and what it costs.
//
// Two rows, one per flow, each showing the phase's distinct payoff:
//
//   - s953 (direct flow): there is no exhaustive fallback past the
//     explicit-state ceiling, so every PODEM detection is coverage the
//     run would otherwise not have — podem-on must cover strictly more
//     than podem-off (covered, podem-found).
//   - hazard (CSSG flow): the exhaustive product-machine fallback is
//     complete, so coverage matches; the payoff is every deterministic
//     detection being one fallback search that never happens
//     (fallback-calls drops on the podem-on row).

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atpg"
)

func benchPodemCircuit(b *testing.B, name string) *Circuit {
	b.Helper()
	f, err := os.Open(filepath.Join("examples", "iscas", name+".ckt"))
	if err != nil {
		b.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
	}
	defer f.Close()
	c, err := ParseCircuit(f, name)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkPodemHardFaults(b *testing.B) {
	// Starve the random phase so a meaningful hard-fault set survives
	// it; the budget is tightened to keep the smoke pass quick.
	directOpts := Options{Seed: 5, RandomSequences: 2, RandomLength: 8, PodemBudget: 16}

	// Direct flow on the largest corpus member: past the explicit-state
	// ceiling, PODEM is the only deterministic phase there is.
	c := benchPodemCircuit(b, "s953")
	base := runDirect(b, c, InputStuckAt, func() Options { o := directOpts; o.SkipPodem = true; return o }())
	hard := base.Total - base.Covered
	for _, podemOn := range []bool{false, true} {
		b.Run(fmt.Sprintf("s953/podem-%s", onOff(podemOn)), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				o := directOpts
				o.SkipPodem = !podemOn
				res = runDirect(b, c, InputStuckAt, o)
			}
			if podemOn && res.Covered <= base.Covered {
				b.Fatalf("PODEM adds no coverage over random alone: %d vs %d", res.Covered, base.Covered)
			}
			b.ReportMetric(float64(hard), "hard-faults")
			b.ReportMetric(float64(res.Covered), "covered")
			b.ReportMetric(float64(res.ByPhase[atpg.PhasePodem]), "podem-found")
			b.ReportMetric(float64(res.Podem.Decisions), "decisions")
			b.ReportMetric(float64(res.Podem.Backtracks), "backtracks")
		})
	}

	// CSSG flow: PODEM runs between the walks and the exhaustive
	// product-machine fallback, so every deterministic detection is one
	// fallback search that never happens — fallback-calls records it.
	cssgOpts := Options{Seed: 5, RandomSequences: 1, RandomLength: 4}
	hz := mustLoadBenchmark(b, "hf/hazard")
	g, err := Abstract(hz, cssgOpts)
	if err != nil {
		b.Fatal(err)
	}
	fbBase := generate(b, g, InputStuckAt, func() Options { o := cssgOpts; o.SkipPodem = true; return o }()).Fallback
	for _, podemOn := range []bool{false, true} {
		b.Run(fmt.Sprintf("hazard/podem-%s", onOff(podemOn)), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				o := cssgOpts
				o.SkipPodem = !podemOn
				res = generate(b, g, InputStuckAt, o)
			}
			if podemOn && res.Fallback >= fbBase {
				b.Fatalf("PODEM saves no fallback searches: %d vs %d", res.Fallback, fbBase)
			}
			b.ReportMetric(float64(res.Covered), "covered")
			b.ReportMetric(float64(res.ByPhase[atpg.PhasePodem]), "podem-found")
			b.ReportMetric(float64(res.Fallback), "fallback-calls")
			b.ReportMetric(float64(res.Podem.Decisions), "decisions")
			b.ReportMetric(float64(res.Podem.Backtracks), "backtracks")
		})
	}
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

func mustLoadBenchmark(b *testing.B, ref string) *Circuit {
	b.Helper()
	c, err := LoadBenchmark(ref)
	if err != nil {
		b.Fatal(err)
	}
	return c
}
