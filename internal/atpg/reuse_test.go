package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// reuseModels are the fault universes the reuse checks cover: the two
// stuck-at models of the paper's tables and the transition extension,
// whose faulted gates turn self-dependent.
var reuseModels = []faults.Type{faults.OutputSA, faults.InputSA, faults.Transition}

// TestExactReuseMatchesStandalone is the differential check of the exact
// machine's good-cycle reuse on both Table suites under every model: for
// every fault, Verify sharing one cache across the circuit's faults (as
// a run shares it) must equal Verify alone on every test the run
// generates plus 16 seeded random walks, and GenerateTest must give the
// same outcome and the same test with the shared cache as without it.
// Each side replays all of a fault's tests on one machine, whose memo
// spans them as it spans the cycles of one Verify call.  The circuits
// run as parallel subtests.  Under -short only every fourth runs, and
// under the race detector too: there the point is the shared cache's
// lock, which the sampled circuits exercise as well as all of them
// (the full run took 54 s under race on a 2-vCPU machine, about 6 s
// without it).
func TestExactReuseMatchesStandalone(t *testing.T) {
	suite := append(circuits.SpeedIndependent(), circuits.HazardFree()...)
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 4
	}
	for i := 0; i < len(suite); i += stride {
		bm := suite[i]
		t.Run(bm.Class+"/"+bm.Name, func(t *testing.T) {
			t.Parallel()
			checkReuse(t, bm.Circuit, int64(i))
		})
	}
}

// checkReuse runs the differential of TestExactReuseMatchesStandalone
// on one circuit, its random walks drawn from seed.
func checkReuse(t *testing.T, c *netlist.Circuit, seed int64) {
	g, err := core.Build(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1}.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	walks := make([]Test, 16)
	for w := range walks {
		walks[w] = randomWalk(g, rng, 8)
	}
	for _, model := range reuseModels {
		universe := faults.Universe(c, model)
		res, err := RunUniverseCtx(context.Background(), g, model, universe, opts)
		if err != nil {
			t.Fatal(err)
		}
		tests := append(slices.Clip(res.Tests), walks...)
		good := newGoodCache(g)
		for _, f := range universe {
			shared, alone := newExactMachine(g, f, opts, good), newExactMachine(g, f, opts, nil)
			for ti, tst := range tests {
				if got, want := shared.detects(tst), alone.detects(tst); got != want {
					t.Fatalf("%s test %d: Verify with the shared cache = %v, alone = %v", f.Describe(c), ti, got, want)
				}
			}
			if msg := generateMismatch(g, f, opts, good); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// generateMismatch describes how GenerateTest with the cache good
// differs from GenerateTest alone, in outcome or test, or returns "".
func generateMismatch(g *core.CSSG, f faults.Fault, opts Options, good *goodCache) string {
	got, gotOut := generateTest(g, f, opts, good)
	want, wantOut := GenerateTest(g, f, opts)
	if gotOut != wantOut || !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("%s: GenerateTest with the shared cache = %v %+v, alone = %v %+v",
			f.Describe(g.C), gotOut, got, wantOut, want)
	}
	return ""
}

// TestExactReuseConcurrent drives one cache from four goroutines, each
// searching every fault of a circuit in its own order, so that the race
// detector sees the cache's lock under contention.
func TestExactReuseConcurrent(t *testing.T) {
	var bm circuits.Benchmark
	for _, b := range circuits.SpeedIndependent() {
		if b.Name == "ebergen" {
			bm = b
		}
	}
	g, err := core.Build(bm.Circuit, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1}.withDefaults()
	universe := faults.Universe(g.C, faults.InputSA)
	good := newGoodCache(g)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range universe {
				f := universe[(i+w*len(universe)/4)%len(universe)]
				if msg := generateMismatch(g, f, opts, good); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzExactReuse checks the reuse at its smallest scale on fuzzer-chosen
// random circuits: one step from a CSSG node under a valid vector, for a
// fault of any universe, must give the same state set with the cache as
// without it; and whenever the machine takes the good cycle as the
// faulty circuit's, exploring the faulty circuit must give exactly the
// good circuit's CycleResult, graph size and settling depth included.
func FuzzExactReuse(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), uint16(0), uint16(0), uint8(0))
	f.Add(int64(5), uint8(20), uint8(80), uint16(7), uint16(3), uint8(1))
	f.Add(int64(7), uint8(6), uint8(20), uint16(31), uint16(0), uint8(2))
	// A slow-to-rise fault on an output tap: the tap is observation-only
	// in the good circuit but not in the faulty one, so the explorations
	// choose differently under the partial-order reduction and their
	// graph sizes differ.
	f.Add(int64(-92), uint8(1), uint8('&'), uint16(58), uint16(47), uint8(0x19))
	f.Fuzz(func(t *testing.T, seed int64, gates, feedback uint8, pick, node uint16, edge uint8) {
		cfg := soundnessConfig
		cfg.MaxGates = cfg.MinGates + int(gates%17)
		cfg.FeedbackProb = 0.05 + float64(feedback%90)/100
		c, ok := randckt.New(rand.New(rand.NewSource(seed)), cfg)
		if !ok {
			t.Skip("no stable circuit for this seed")
		}
		g, err := core.Build(c, core.Options{})
		if err != nil {
			t.Skip(err)
		}
		var universe []faults.Fault
		for _, model := range reuseModels {
			universe = append(universe, faults.Universe(c, model)...)
		}
		flt := universe[int(pick)%len(universe)]
		id := int(node) % g.NumNodes()
		if len(g.Edges[id]) == 0 {
			t.Skip("no valid vector at this node")
		}
		pattern := g.Edges[id][int(edge)%len(g.Edges[id])].Pattern
		opts := soundnessOptions.withDefaults()
		shared := newExactMachine(g, flt, opts, newGoodCache(g))
		alone := newExactMachine(g, flt, opts, nil)
		from := []uint64{g.Nodes[id]}
		got, gotOK := shared.step(from, pattern)
		want, wantOK := alone.step(from, pattern)
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("%s at node %d, vector %b: step with the cache = %v %v, alone = %v %v\n%s",
				flt.Describe(c), id, pattern, got, gotOK, want, wantOK, c.String())
		}
		start := c.WithInputBits(g.Nodes[id], pattern)
		if _, same := shared.goodCycle(g.Nodes[id], start); same {
			faulty := core.Explore(shared.fc, start, shared.opts)
			goodCR := core.Explore(c, start, shared.opts)
			if !reflect.DeepEqual(faulty, goodCR) {
				t.Fatalf("%s at node %d, vector %b: reused the good cycle %+v, but the faulty circuit's is %+v\n%s",
					flt.Describe(c), id, pattern, goodCR, faulty, c.String())
			}
		}
	})
}
