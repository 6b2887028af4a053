package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of no samples is not NaN")
	}
}

func TestUnionLength(t *testing.T) {
	ivs := []interval{{0, 10}, {20, 25}, {5, 15}, {6, 7}}
	if got := unionLength(ivs, 0, 30); got != 20 {
		t.Errorf("union over [0,30) = %v, want 20", got)
	}
	if got := unionLength(ivs, 8, 22); got != 9 {
		t.Errorf("union clipped to [8,22) = %v, want 9", got)
	}
	if got := unionLength(nil, 0, 5); got != 0 {
		t.Errorf("union of nothing = %v, want 0", got)
	}
}

// TestSelfTimes pins the self-time arithmetic on a nested, concurrent
// trace: a span's self time excludes what its children cover, and
// overlapping children count once against their parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Run: "r", Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Run: "r", Name: "atpg.generate", Start: 10, End: 40},
		{ID: 2, Parent: 1, Run: "r", Name: "podem.target", Start: 20, End: 30},
		{ID: 3, Parent: 0, Run: "r", Name: "service.coverage", Start: 30, End: 60},
		{ID: 4, Parent: 0, Run: "r", Name: "service.compact", Start: 35, End: 50},
		{ID: 5, Parent: 0, Run: "r", Name: "core.abstract", Start: 90, End: -1}, // never closed
		{ID: 6, Parent: -1, Run: "other", Name: "pass", Start: 0, End: 7},
	}
	got := selfTimes(spans, "r")
	want := map[string]time.Duration{"pass": 50, "atpg": 20, "podem": 10, "service": 45}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
	root, err := rootSpan(spans, "r")
	if err != nil || root.ID != 0 {
		t.Fatalf("rootSpan = %+v, %v", root, err)
	}
	if _, err := rootSpan(append(spans, span{ID: 7, Parent: -1, Run: "r", Name: "pass", End: 1}), "r"); err == nil {
		t.Errorf("rootSpan accepted a run with two roots")
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.start(-1, "r", "pass"); id != -1 || off.stop(id) != 0 || off.snapshot() != nil {
		t.Errorf("a nil tracer recorded something")
	}
	tr := newTracer()
	root := tr.start(-1, "r", "pass")
	child := tr.start(root, "r", "netlist.parse")
	if d := tr.stop(child); d < 0 {
		t.Errorf("negative span duration %v", d)
	}
	tr.stop(root)
	path := filepath.Join(t.TempDir(), "spans", "r.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Name != "netlist.parse" || got[0].Run != "r" ||
		got[1].Start < got[0].Start || got[1].End > got[0].End {
		t.Errorf("written spans %+v", got)
	}
}

// TestLayerMetricsDeclared checks that every per-layer metric a
// workload zero-fills is declared in the benchmark's contract.
func TestLayerMetricsDeclared(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	names := append(append([]string{}, serviceLayerMetrics...), generationLayerMetrics...)
	names = append(names, "trace.pass_s", "trace.unattributed_frac")
	for _, l := range traceLayers {
		names = append(names, "trace."+l+"_frac")
	}
	for _, n := range names {
		if !declared[n] {
			t.Errorf("%s is emitted but not declared in %s", n, specFile)
		}
	}
}
