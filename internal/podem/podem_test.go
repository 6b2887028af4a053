package podem

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func loadISCAS(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "iscas", name+".ckt"))
	if err != nil {
		t.Skipf("corpus circuit %s unavailable: %v", name, err)
	}
	defer f.Close()
	c, err := netlist.Parse(f, name)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

// validate replays a claimed test on the scalar oracle: every cycle
// must settle the good machine fully definite with the recorded
// expected outputs, and the final cycle must show a definite-opposite
// output under the fault.
func validate(t *testing.T, c *netlist.Circuit, f faults.Fault, pt Test) {
	t.Helper()
	good := sim.Machine{C: c}
	faulty := sim.Machine{C: c, Fault: &f}
	gst, fst := good.InitState(), faulty.InitState()
	for cyc, pat := range pt.Patterns {
		gst = good.Step(gst, pat)
		fst = faulty.Step(fst, pat)
		var w uint64
		for j, s := range c.Outputs {
			if !gst[s].IsDefinite() {
				t.Fatalf("%s cycle %d: good output %d is X", f.Describe(c), cyc, j)
			}
			if gst[s] == logic.One {
				w |= 1 << uint(j)
			}
		}
		if w != pt.Expected[cyc] {
			t.Fatalf("%s cycle %d: expected %#x, good machine says %#x", f.Describe(c), cyc, pt.Expected[cyc], w)
		}
	}
	last := len(pt.Patterns) - 1
	for j, s := range c.Outputs {
		want := pt.Expected[last]>>uint(j)&1 == 1
		if fst[s].IsDefinite() && fst[s].Bool() != want {
			return // definite-opposite output: detection confirmed
		}
	}
	t.Fatalf("%s: claimed test does not detect on the scalar oracle", f.Describe(c))
}

func runAll(t *testing.T, c *netlist.Circuit, lanes int) (found int) {
	g, err := New(c, Options{Lanes: lanes})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	universe := faults.SelectUniverse(c, faults.OutputSA, faults.SelBoth)
	for _, f := range universe {
		pt, ok := g.Target(context.Background(), f)
		if !ok {
			continue
		}
		found++
		validate(t, c, f, pt)
	}
	st := g.Stats()
	if st.Targeted != len(universe) || st.Found != found {
		t.Fatalf("stats mismatch: %+v vs targeted=%d found=%d", st, len(universe), found)
	}
	if found > 0 && (st.Decisions == 0 || st.Settles == 0) {
		t.Fatalf("found %d tests with zero decisions/settles: %+v", found, st)
	}
	return found
}

// Every claimed test must hold up on the scalar oracle, at every lane
// width, and the engine must find a substantial share of the universe
// on its own (no random phase in front of it here).
func TestTargetClaimsAreSound(t *testing.T) {
	cs := []*netlist.Circuit{mustLookup(t, "fig1a"), mustLookup(t, "si/chu150")}
	if !testing.Short() {
		cs = append(cs, loadISCAS(t, "s27"))
	}
	for _, c := range cs {
		for _, lanes := range []int{lanevec.Lanes1, lanevec.Lanes4} {
			found := runAll(t, c, lanes)
			if found == 0 {
				t.Errorf("%s lanes=%d: deterministic phase found no tests at all", c.Name, lanes)
			}
		}
	}
}

func mustLookup(t *testing.T, ref string) *netlist.Circuit {
	t.Helper()
	c, err := circuits.Lookup(ref)
	if err != nil {
		t.Fatalf("lookup %s: %v", ref, err)
	}
	return c
}

// The search is deterministic: two independent generators produce the
// identical test for every fault.
func TestTargetDeterministic(t *testing.T) {
	c := mustLookup(t, "fig1a")
	universe := faults.SelectUniverse(c, faults.OutputSA, faults.SelBoth)
	g1, _ := New(c, Options{})
	g2, _ := New(c, Options{})
	for _, f := range universe {
		t1, ok1 := g1.Target(context.Background(), f)
		t2, ok2 := g2.Target(context.Background(), f)
		if ok1 != ok2 || !reflect.DeepEqual(t1, t2) {
			t.Fatalf("%s: nondeterministic result", f.Describe(c))
		}
	}
}

// A cancelled context aborts the target immediately.
func TestTargetCancelled(t *testing.T) {
	c := mustLookup(t, "fig1a")
	g, _ := New(c, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	universe := faults.Universe(c, faults.OutputSA)
	if _, ok := g.Target(ctx, universe[0]); ok {
		t.Fatal("Target succeeded under a cancelled context")
	}
}

func TestNewValidation(t *testing.T) {
	c := mustLookup(t, "fig1a")
	for _, lanes := range []int{96, 128} {
		if _, err := New(c, Options{Lanes: lanes}); err == nil || !strings.Contains(err.Error(), "64 or 256") {
			t.Fatalf("lane width %d: err = %v, want a rejection listing 64 or 256", lanes, err)
		}
	}
}

// OrderTargets is a permutation of remaining, near-miss count first.
func TestOrderTargets(t *testing.T) {
	c := mustLookup(t, "fig1a")
	universe := faults.Universe(c, faults.OutputSA)
	remaining := make([]int, len(universe))
	for i := range remaining {
		remaining[i] = i
	}
	nm := make([]int, len(universe))
	nm[len(universe)-1] = 5
	order := OrderTargets(c, universe, remaining, TargetFeatures{NearMiss: nm})
	if len(order) != len(remaining) {
		t.Fatalf("order has %d entries, want %d", len(order), len(remaining))
	}
	if order[0] != len(universe)-1 {
		t.Fatalf("near-miss fault not ordered first: %v", order)
	}
	seen := map[int]bool{}
	for _, fi := range order {
		if seen[fi] {
			t.Fatalf("duplicate %d in order", fi)
		}
		seen[fi] = true
	}
}

// The event-kernel settle sequence used by the group search must agree
// with the sweep-path ApplyRailsX on arbitrary ternary rails — the
// implication engine and its differential oracle.
func TestEventSettleMatchesApplyRailsX(t *testing.T) {
	c := mustLookup(t, "fig1a")
	topo := c.Topology()
	ev := lanevec.NewEngine[lanevec.V1](c)
	all := lanevec.V1{}.FirstN(lanevec.Lanes1)
	ev.SetAll(all)
	ev.InitEvents(topo)
	sw := lanevec.NewEngine[lanevec.V1](c)
	sw.SetAll(all)

	ev.Reset()
	sw.Reset()
	n := c.NumSignals()
	s1 := make([]lanevec.V1, n)
	s0 := make([]lanevec.V1, n)
	ev.CopyState(s1, s0)

	rng := rand.New(rand.NewSource(7))
	r1 := make([]lanevec.V1, c.NumInputs())
	r0 := make([]lanevec.V1, c.NumInputs())
	for round := 0; round < 20; round++ {
		for i := range r1 {
			a, b := rng.Uint64(), rng.Uint64()
			// Ensure every lane keeps at least one possibility bit.
			r1[i] = lanevec.V1{a | ^b}
			r0[i] = lanevec.V1{b | ^a}
		}
		ev.ClearActivity()
		ev.LoadState(s1, s0)
		for i := range r1 {
			ev.MarkSignal(netlist.SigID(i), r1[i], r0[i])
		}
		ev.SeedFromActivity()
		ev.RunRaise()
		ev.SeedFromActivity()
		ev.RunLower()

		sw.LoadState(s1, s0)
		sw.ApplyRailsX(r1, r0)

		for s := 0; s < n; s++ {
			e1, e0 := ev.Definite(netlist.SigID(s))
			w1, w0 := sw.Definite(netlist.SigID(s))
			if e1 != w1 || e0 != w0 {
				t.Fatalf("round %d signal %d: event (%#x,%#x) vs sweep (%#x,%#x)", round, s, e1, e0, w1, w0)
			}
		}
		ev.CopyState(s1, s0) // next round starts from this fixpoint
	}
}
