package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// exploreCaps are the settling-graph caps every differential case runs
// at: two that truncate most non-trivial cycles mid-BFS, and one that
// lets the random start states of the Table circuits finish (at the
// default cap the reference alone needs minutes for those).
var exploreCaps = []int{3, 17, 2000}

// lowBudget is the stored-successor budget every differential case
// also runs at, since no case comes near the production budget: the
// depth DP reads the first few states' stored successor lists and
// re-derives every other state's.
const lowBudget = 7

// checkExplore compares Explore against the reference from start, with
// POR on and off at every cap, on whole CycleResults, also with the
// successor budget lowered; and ExploreRecorded's CycleResult with POR
// on, the setting of the exact fault machine that reads its record,
// whose record must not depend on the budget either.
func checkExplore(t *testing.T, c *netlist.Circuit, start uint64) {
	t.Helper()
	for _, maxStates := range exploreCaps {
		for _, disablePOR := range []bool{false, true} {
			opts := core.Options{MaxStatesPerPattern: maxStates, DisablePOR: disablePOR}
			got := core.Explore(c, start, opts)
			want := core.ExploreRef(c, start, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s from %s, cap %d, DisablePOR %v:\n got %+v\nwant %+v",
					c.Name, c.FormatState(start), maxStates, disablePOR, got, want)
			}
			low, lowRec := core.ExploreBudget(c, start, opts, lowBudget, !disablePOR)
			if !reflect.DeepEqual(low, want) {
				t.Fatalf("%s from %s, cap %d, DisablePOR %v, successor budget %d:\n got %+v\nwant %+v",
					c.Name, c.FormatState(start), maxStates, disablePOR, lowBudget, low, want)
			}
			if disablePOR {
				continue
			}
			recorded, rec := core.ExploreRecorded(c, start, opts)
			if !reflect.DeepEqual(recorded, want) {
				t.Fatalf("%s from %s, cap %d, DisablePOR %v: recording changed the result:\n got %+v\nwant %+v",
					c.Name, c.FormatState(start), maxStates, disablePOR, recorded, want)
			}
			if !reflect.DeepEqual(lowRec, rec) {
				t.Fatalf("%s from %s, cap %d, successor budget %d: record %x, want %x",
					c.Name, c.FormatState(start), maxStates, lowBudget, lowRec, rec)
			}
		}
	}
}

// exploreStarts returns n start states for c: the reset state, the
// reset state under n/3 random input patterns (the AnalyzeVector
// shape), and random — usually unstable — states over every signal
// (the shape the exact fault machine hands Explore).
func exploreStarts(rng *rand.Rand, c *netlist.Circuit, n int) []uint64 {
	init := c.InitState()
	inMask := uint64(1)<<uint(c.NumInputs()) - 1
	sigMask := uint64(1)<<uint(c.NumSignals()) - 1
	starts := []uint64{init}
	for len(starts) < 1+n/3 {
		starts = append(starts, c.WithInputBits(init, rng.Uint64()&inMask))
	}
	for len(starts) < n {
		starts = append(starts, rng.Uint64()&sigMask)
	}
	return starts
}

// diffCircuits returns the Table-1/2 suites plus seeded randckt circuits
// of up to 30 gates with a varying share of feedback.
func diffCircuits(random int) []*netlist.Circuit {
	var out []*netlist.Circuit
	for _, bm := range append(circuits.SpeedIndependent(), circuits.HazardFree()...) {
		out = append(out, bm.Circuit)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < random; {
		ng := 4 + rng.Intn(27)
		c, ok := randckt.New(rng, randckt.Config{
			MinInputs: 1, MaxInputs: 4,
			MinGates: ng, MaxGates: ng,
			FeedbackProb: 0.1 + 0.8*rng.Float64(),
		})
		if ok {
			c.Name = fmt.Sprintf("rand%d-%s", i, c.Name)
			out = append(out, c)
			i++
		}
	}
	return out
}

// TestExploreMatchesReference checks the production exploration
// against the reference on whole CycleResults: every Table circuit and
// 25 random ones, fault-free and with every 7th output stuck-at, input
// stuck-at and transition fault materialised by faults.Apply, from the
// reset state and from random start states, with POR on and off, at
// caps that truncate and one that does not.  -short keeps every
// circuit but samples the faults more sparsely.
func TestExploreMatchesReference(t *testing.T) {
	stride, starts := 7, 12
	if testing.Short() {
		stride, starts = 61, 6
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range diffCircuits(25) {
		machines := []*netlist.Circuit{c}
		var universe []faults.Fault
		universe = append(universe, faults.OutputUniverse(c)...)
		universe = append(universe, faults.InputUniverse(c)...)
		universe = append(universe, faults.TransitionUniverse(c)...)
		for i := 0; i < len(universe); i += stride {
			machines = append(machines, faults.Apply(c, universe[i]))
		}
		for _, mc := range machines {
			for _, st := range exploreStarts(rng, mc, starts) {
				checkExplore(t, mc, st)
			}
		}
	}
}

// FuzzExploreVsReference drives the same differential over random
// circuits, faults and start states.
func FuzzExploreVsReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint64(0))
	f.Add(int64(7), uint8(12), uint8(3), uint64(0x5a5a))
	f.Add(int64(42), uint8(30), uint8(77), uint64(1<<40-1))
	f.Add(int64(99), uint8(40), uint8(200), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed int64, gates, fault uint8, start uint64) {
		rng := rand.New(rand.NewSource(seed))
		ng := 1 + int(gates%40)
		c, ok := randckt.New(rng, randckt.Config{
			MinInputs: 1, MaxInputs: 4,
			MinGates: ng, MaxGates: ng,
			FeedbackProb: 0.1 + 0.8*rng.Float64(),
		})
		if !ok {
			t.Skip("no stable circuit for this seed")
		}
		var universe []faults.Fault
		universe = append(universe, faults.OutputUniverse(c)...)
		universe = append(universe, faults.InputUniverse(c)...)
		universe = append(universe, faults.TransitionUniverse(c)...)
		// One index past the universe keeps the fault-free circuit.
		if i := int(fault) % (len(universe) + 1); i < len(universe) {
			c = faults.Apply(c, universe[i])
		}
		checkExplore(t, c, c.InitState())
		checkExplore(t, c, start&(uint64(1)<<uint(c.NumSignals())-1))
	})
}

// TestBuildConcurrent builds CSSGs of different circuits on several
// goroutines at once, as the service does, so pooled exploration
// scratch moves between goroutines and circuits; every graph must equal
// its serial build.
func TestBuildConcurrent(t *testing.T) {
	var cs []*netlist.Circuit
	for _, ref := range []string{"si/chu150", "si/vbe5b", "hf/converta", "si/seq4", "hf/dff", "fig1a"} {
		c, err := circuits.Lookup(ref)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	want := make([]*core.CSSG, len(cs))
	for i, c := range cs {
		g, err := core.Build(c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = g
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for j := range cs {
					i := (j + w) % len(cs)
					g, err := core.Build(cs[i], core.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					if g.Stats != want[i].Stats || !reflect.DeepEqual(g.Nodes, want[i].Nodes) ||
						!reflect.DeepEqual(g.Edges, want[i].Edges) {
						t.Errorf("%s: concurrent build differs from the serial one", cs[i].Name)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCSSGStatsGolden pins the construction statistics of every Table
// circuit at the defaults, as computed by the reference exploration.
// SettlingStates sums GraphStates over every (node, pattern) pair and
// Truncated counts cap hits, so a change to the settling graph's size or
// truncation shows here even when the CSSG itself survives it.
// hf/trimos-send is the largest graph and the one that truncates.
func TestCSSGStatsGolden(t *testing.T) {
	golden := map[string]core.Stats{
		"si/alloc-outbound": {NumStates: 16, NumEdges: 80, NonConfluent: 32, MaxSettleDepth: 22, SettlingStates: 4002},
		"si/atod":           {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 14, SettlingStates: 1728},
		"si/chu150":         {NumStates: 16, NumEdges: 96, NonConfluent: 16, MaxSettleDepth: 21, SettlingStates: 3247},
		"si/converta":       {NumStates: 8, NumEdges: 16, NonConfluent: 8, MaxSettleDepth: 13, SettlingStates: 414},
		"si/dff":            {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 14, SettlingStates: 1424},
		"si/ebergen":        {NumStates: 24, NumEdges: 136, NonConfluent: 32, MaxSettleDepth: 24, SettlingStates: 7743},
		"si/hazard":         {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 14, SettlingStates: 1424},
		"si/master-read":    {NumStates: 64, NumEdges: 768, NonConfluent: 192, MaxSettleDepth: 48, SettlingStates: 257789},
		"si/mmu":            {NumStates: 32, NumEdges: 416, NonConfluent: 64, MaxSettleDepth: 44, SettlingStates: 147640},
		"si/mp-forward-pkt": {NumStates: 16, NumEdges: 96, NonConfluent: 16, MaxSettleDepth: 23, SettlingStates: 3960},
		"si/mr1":            {NumStates: 56, NumEdges: 712, NonConfluent: 128, MaxSettleDepth: 52, SettlingStates: 192250},
		"si/nak-pa":         {NumStates: 16, NumEdges: 80, NonConfluent: 32, MaxSettleDepth: 27, SettlingStates: 5438},
		"si/nowick":         {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 18, SettlingStates: 1977},
		"si/ram-read-sbuf":  {NumStates: 20, NumEdges: 124, NonConfluent: 16, MaxSettleDepth: 28, SettlingStates: 7117},
		"si/rcv-setup":      {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 11, SettlingStates: 1169},
		"si/rpdft":          {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 19, SettlingStates: 2144},
		"si/sbuf-ram-write": {NumStates: 48, NumEdges: 592, NonConfluent: 128, MaxSettleDepth: 36, SettlingStates: 74257},
		"si/sbuf-send-ctl":  {NumStates: 20, NumEdges: 124, NonConfluent: 16, MaxSettleDepth: 28, SettlingStates: 7117},
		"si/sbuf-send-pkt2": {NumStates: 40, NumEdges: 536, NonConfluent: 64, MaxSettleDepth: 46, SettlingStates: 443669},
		"si/seq4":           {NumStates: 12, NumEdges: 32, NonConfluent: 4, MaxSettleDepth: 25, SettlingStates: 1301},
		"si/trimos-send":    {NumStates: 64, NumEdges: 768, NonConfluent: 192, MaxSettleDepth: 45, SettlingStates: 229739},
		"si/vbe10b":         {NumStates: 40, NumEdges: 536, NonConfluent: 64, MaxSettleDepth: 44, SettlingStates: 414110},
		"si/vbe5b":          {NumStates: 6, NumEdges: 14, NonConfluent: 4, MaxSettleDepth: 14, SettlingStates: 200},
		"si/vbe6a":          {NumStates: 16, NumEdges: 80, NonConfluent: 32, MaxSettleDepth: 24, SettlingStates: 4826},
		"hf/chu150":         {NumStates: 18, NumEdges: 86, NonConfluent: 40, MaxSettleDepth: 22, SettlingStates: 11696},
		"hf/converta":       {NumStates: 7, NumEdges: 16, NonConfluent: 5, MaxSettleDepth: 18, SettlingStates: 1561},
		"hf/dff":            {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 15, SettlingStates: 2216},
		"hf/ebergen":        {NumStates: 25, NumEdges: 99, NonConfluent: 76, MaxSettleDepth: 20, SettlingStates: 76313},
		"hf/hazard":         {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 15, SettlingStates: 2216},
		"hf/nowick":         {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 17, SettlingStates: 2694},
		"hf/rpdft":          {NumStates: 12, NumEdges: 68, NonConfluent: 16, MaxSettleDepth: 20, SettlingStates: 3009},
		"hf/trimos-send":    {NumStates: 25, NumEdges: 99, NonConfluent: 67, Truncated: 9, MaxSettleDepth: 27, SettlingStates: 1426277},
		"hf/vbe10b":         {NumStates: 25, NumEdges: 99, NonConfluent: 67, Truncated: 9, MaxSettleDepth: 26, SettlingStates: 1362282},
		"hf/vbe5b":          {NumStates: 6, NumEdges: 14, NonConfluent: 4, MaxSettleDepth: 15, SettlingStates: 288},
		"hf/vbe6a":          {NumStates: 18, NumEdges: 86, NonConfluent: 40, MaxSettleDepth: 26, SettlingStates: 80210},
	}
	seen := 0
	for _, suite := range []struct {
		prefix string
		list   []circuits.Benchmark
	}{{"si/", circuits.SpeedIndependent()}, {"hf/", circuits.HazardFree()}} {
		for _, bm := range suite.list {
			ref := suite.prefix + bm.Name
			want, ok := golden[ref]
			if !ok {
				t.Errorf("%s: no golden stats", ref)
				continue
			}
			seen++
			g, err := core.Build(bm.Circuit, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", ref, err)
			}
			if g.Stats != want {
				t.Errorf("%s: stats %+v, want %+v", ref, g.Stats, want)
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("checked %d circuits, golden table has %d", seen, len(golden))
	}
}
