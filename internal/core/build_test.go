package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/netlist"
)

// buildAt runs core.Build at the given GOMAXPROCS, restoring it after.
func buildAt(procs int, c *netlist.Circuit, opts core.Options) (*core.CSSG, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return core.Build(c, opts)
}

// TestBuildParallelMatchesSerial builds every Table circuit and a few
// random ones on one worker and on four: the parallel Build commits its
// vectors in the serial order, so nodes, edges and statistics must be
// identical.
func TestBuildParallelMatchesSerial(t *testing.T) {
	for _, c := range diffCircuits(6) {
		serial, err := buildAt(1, c, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		parallel, err := buildAt(4, c, core.Options{})
		if err != nil {
			t.Fatalf("%s at 4 workers: %v", c.Name, err)
		}
		if parallel.Stats != serial.Stats || !reflect.DeepEqual(parallel.Nodes, serial.Nodes) ||
			!reflect.DeepEqual(parallel.Edges, serial.Edges) {
			t.Errorf("%s: the build at 4 workers differs from the serial one:\n got %s\nwant %s",
				c.Name, parallel.Summary(), serial.Summary())
		}
	}
}

// TestBuildStableStateCap checks the stable-state cap on si/master-read
// (64 nodes): every cap below 64 fails with the same error on one
// worker and on four, the cap of 64 builds the whole graph, and a
// failed Build leaves none of its workers running.
func TestBuildStableStateCap(t *testing.T) {
	c, err := circuits.Lookup("si/master-read")
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Build(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.NumNodes() != 64 {
		t.Fatalf("si/master-read has %d nodes, the test assumes 64", full.NumNodes())
	}
	before := runtime.NumGoroutine()
	for _, limit := range []int{1, 10, 63} {
		want := fmt.Sprintf("core: stable-state cap %d exceeded for master-read", limit)
		for _, procs := range []int{1, 4} {
			g, err := buildAt(procs, c, core.Options{MaxStableStates: limit})
			if g != nil || err == nil || err.Error() != want {
				t.Errorf("cap %d at %d workers: graph %v, error %v; want %q", limit, procs, g, err, want)
			}
		}
	}
	g, err := buildAt(4, c, core.Options{MaxStableStates: 64})
	if err != nil {
		t.Fatalf("cap 64: %v", err)
	}
	if g.Stats != full.Stats || !reflect.DeepEqual(g.Edges, full.Edges) {
		t.Errorf("cap 64: %s, want %s", g.Summary(), full.Summary())
	}
	// Build has waited for its workers, which may still be tearing
	// down; give them a moment to leave the count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed builds, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
