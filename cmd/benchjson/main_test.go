package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEventVsSweepTable1/both/event/lanes-128-4         	       1	 119573698 ns/op	      1913 detected	         4.071 gate-evals/pattern	    822125 patterns/sec
BenchmarkFaultSimEngines/serial-per-pattern-4              	       1	 251202251 ns/op	       110.0 detected
BenchmarkFaultSimEngines/sharded-4-4                       	       2	  12000000 ns/op	       110.0 detected	        10.00 gate-evals/pattern
BenchmarkCompactTable1/input-sa/all-4                      	       1	  44647256 ns/op	        83.72 %reduction	       180.0 tests-removed	      4032 tests-removed/sec
BenchmarkCompactTable1/transition/matrix-4                 	       1	  31900916 ns/op	      1487 patterns	     46614 patterns/sec
BenchmarkISCASScale/s349/signals-363/event/lanes-64-4      	       1	 247226189 ns/op	       299.0 detected	       254.3 gate-evals/pattern	      6213 patterns/sec
BenchmarkServiceShardThroughput/s953/workers-4-4           	       1	  69991475 ns/op	       705.0 detected	     21946 patterns/sec	        14.29 queries/sec
BenchmarkServiceConcurrentQueries/s27/inflight-1024/workers-2-4	       1	 658399165 ns/op	        99.90 cache-hit-%	    796308 patterns/sec	      1555 queries/sec	         0 singleflight-waits
not a benchmark line
PASS
ok  	repro	4.885s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.Pkg != "repro" || rep.CPU == "" {
		t.Fatalf("header metadata wrong: %+v", rep)
	}
	if len(rep.Results) != 8 {
		t.Fatalf("parsed %d results, want 8", len(rep.Results))
	}

	e := rep.Results[0]
	if e.Name != "BenchmarkEventVsSweepTable1/both/event/lanes-128" {
		t.Errorf("name %q (the -procs suffix must be stripped)", e.Name)
	}
	if e.Model != "both" || e.Engine != "event" || e.Lanes != 128 {
		t.Errorf("dimension lifting wrong: model=%q engine=%q lanes=%d", e.Model, e.Engine, e.Lanes)
	}
	if e.Iterations != 1 {
		t.Errorf("iterations %d", e.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 119573698, "detected": 1913,
		"gate-evals/pattern": 4.071, "patterns/sec": 822125,
	} {
		if got := e.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}

	if s := rep.Results[1]; s.Engine != "serial" {
		t.Errorf("serial-per-pattern engine %q", s.Engine)
	}
	if s := rep.Results[2]; s.Engine != "sweep" {
		t.Errorf("sharded engine %q, want sweep", s.Engine)
	}
	if s := rep.Results[3]; s.Model != "input-sa" || s.Mode != "all" ||
		s.Metrics["tests-removed/sec"] != 4032 {
		t.Errorf("compaction dimension lifting wrong: %+v", s)
	}
	if s := rep.Results[4]; s.Model != "transition" || s.Mode != "matrix" ||
		s.Metrics["patterns/sec"] != 46614 {
		t.Errorf("matrix dimension lifting wrong: %+v", s)
	}
	if s := rep.Results[5]; s.Circuit != "s349" || s.Signals != 363 ||
		s.Engine != "event" || s.Lanes != 64 || s.Metrics["patterns/sec"] != 6213 {
		t.Errorf("circuit-size dimension lifting wrong: %+v", s)
	}
	if s := rep.Results[6]; s.Name != "BenchmarkServiceShardThroughput/s953/workers-4" ||
		s.Circuit != "s953" || s.Workers != 4 || s.Metrics["queries/sec"] != 14.29 {
		t.Errorf("shard-throughput dimension lifting wrong: %+v", s)
	}
	if s := rep.Results[7]; s.Circuit != "s27" || s.Inflight != 1024 || s.Workers != 2 ||
		s.Metrics["patterns/sec"] != 796308 || s.Metrics["cache-hit-%"] != 99.90 {
		t.Errorf("concurrent-query dimension lifting wrong: %+v", s)
	}
}

// A filtered transcript where every name ends in the same worker count
// must keep that count out of the procs-suffix strip, like lanes-N.
func TestParseUniformWorkerSuffixNotStripped(t *testing.T) {
	const uniform = `BenchmarkServiceShardThroughput/s953/workers-4   1  100 ns/op  200 patterns/sec
BenchmarkServiceConcurrentQueries/s27/inflight-1024/workers-4   1  100 ns/op  300 queries/sec
`
	rep, err := parse(strings.NewReader(uniform))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Results {
		if e.Workers != 4 {
			t.Errorf("%s: workers %d, want 4", e.Name, e.Workers)
		}
		if !strings.HasSuffix(e.Name, "workers-4") {
			t.Errorf("name mangled: %q", e.Name)
		}
	}
}

func TestParseRejectsGarbageValues(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkX 1 notanumber ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("garbage line parsed: %+v", rep.Results)
	}
}

// On a single-CPU runner go test appends no -procs suffix; the parser
// must then leave names alone, so lanes-64 keeps its width.
func TestParseSingleCPUNames(t *testing.T) {
	const singleCPU = `BenchmarkEventVsSweepTable1/transition/event/lanes-64   1  100 ns/op  200 patterns/sec
BenchmarkEventVsSweepTable1/transition/event/lanes-256   1  100 ns/op  300 patterns/sec
`
	rep, err := parse(strings.NewReader(singleCPU))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("parsed %d results", len(rep.Results))
	}
	if rep.Results[0].Lanes != 64 || rep.Results[1].Lanes != 256 {
		t.Errorf("lanes lost without a procs suffix: %d, %d", rep.Results[0].Lanes, rep.Results[1].Lanes)
	}
	if !strings.HasSuffix(rep.Results[0].Name, "lanes-64") {
		t.Errorf("name mangled: %q", rep.Results[0].Name)
	}
	if rep.Results[0].Model != "transition" || rep.Results[0].Engine != "event" {
		t.Errorf("dimensions wrong: %+v", rep.Results[0])
	}
}

// A filtered transcript where every name ends in the same lane width
// must not have that width mistaken for a procs suffix.
func TestParseUniformLaneSuffixNotStripped(t *testing.T) {
	const uniform = `BenchmarkEventVsSweepTable1/transition/event/lanes-64   1  100 ns/op
BenchmarkEventVsSweepTable1/transition/sweep/lanes-64   1  200 ns/op
`
	rep, err := parse(strings.NewReader(uniform))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Results {
		if e.Lanes != 64 {
			t.Errorf("%s: lanes %d, want 64", e.Name, e.Lanes)
		}
	}
}

// entryFor builds a comparison row with the given throughput and total
// measured time.
func entryFor(name string, ps, totalNS float64, iters int64) Entry {
	return Entry{
		Name:       name,
		Iterations: iters,
		Metrics:    map[string]float64{"patterns/sec": ps, "ns/op": totalNS / float64(iters)},
	}
}

func TestCompareReportsGatesRegressions(t *testing.T) {
	base := Report{Results: []Entry{
		entryFor("A/event/lanes-64", 1000, 4e9, 2),
		entryFor("B/event/lanes-64", 2000, 4e9, 2),
		entryFor("C/event/lanes-64", 3000, 4e9, 2),
	}}
	fresh := Report{Results: []Entry{
		entryFor("A/event/lanes-64", 900, 4e9, 2),  // -10%: within tolerance
		entryFor("B/event/lanes-64", 1000, 4e9, 2), // -50%: regression
		entryFor("C/event/lanes-64", 4500, 4e9, 2), // improvement
		entryFor("D/event/lanes-64", 10, 4e9, 2),   // no baseline row: ignored
	}}
	lines, failures := compareReports(fresh, base, 25)
	if len(lines) != 3 {
		t.Fatalf("want 3 comparison lines, got %d: %v", len(lines), lines)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "B/event/lanes-64") {
		t.Fatalf("want exactly the B regression, got %v", failures)
	}
}

// states/sec rows (CSSG exploration throughput) are gated exactly like
// patterns/sec rows: same floor, same tolerated drop.
func TestCompareReportsGatesStatesPerSec(t *testing.T) {
	row := func(name string, sps, totalNS float64) Entry {
		return Entry{Name: name, Iterations: 1,
			Metrics: map[string]float64{"states/sec": sps, "ns/op": totalNS}}
	}
	base := Report{Results: []Entry{
		row("CSSGConstruction/hf/trimos-send", 6e6, 2e9),
		row("CSSGConstruction/si/mmu", 8e6, 2e9),
		row("ExploreVector", 2e6, 5e3),
	}}
	fresh := Report{Results: []Entry{
		row("CSSGConstruction/hf/trimos-send", 3e6, 2e9), // -50%: regression
		row("CSSGConstruction/si/mmu", 7e6, 2e9),         // -12.5%: within tolerance
		row("ExploreVector", 1e5, 5e3),                   // -95%, but under the floor
	}}
	lines, failures := compareReports(fresh, base, 25)
	if len(lines) != 3 {
		t.Fatalf("want 3 comparison lines, got %d: %v", len(lines), lines)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "trimos-send: states/sec regressed") {
		t.Fatalf("want exactly the trimos-send states/sec regression, got %v", failures)
	}
	if !strings.Contains(lines[2], "not gated") {
		t.Fatalf("under-floor states/sec row gated: %q", lines[2])
	}
}

// A row measured for less than the floor on either side is reported
// but never gated: single-iteration throughput flaps with the
// scheduler, and a hard gate there would fail CI on noise.
func TestCompareReportsMeasurementFloor(t *testing.T) {
	base := Report{Results: []Entry{
		entryFor("tiny", 1000, 2e6, 1), // 2ms measured
		entryFor("slow", 1000, 4e9, 1),
	}}
	fresh := Report{Results: []Entry{
		entryFor("tiny", 100, 2e6, 1), // -90%, but under the floor
		entryFor("slow", 100, 1e6, 1), // fresh side under the floor
	}}
	lines, failures := compareReports(fresh, base, 25)
	if len(failures) != 0 {
		t.Fatalf("under-floor rows must not gate, got %v", failures)
	}
	for _, l := range lines {
		if !strings.Contains(l, "not gated") {
			t.Fatalf("line missing floor annotation: %q", l)
		}
	}
}

func TestCompareReportsEndToEndFromTranscripts(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// Self-comparison: every matched row is a 1.00x ratio, no failures.
	lines, failures := compareReports(rep, rep, 25)
	if len(failures) != 0 {
		t.Fatalf("self-comparison regressed: %v", failures)
	}
	if len(lines) == 0 {
		t.Fatal("self-comparison matched no rows")
	}
	for _, l := range lines {
		if !strings.Contains(l, "1.00x") {
			t.Fatalf("self-comparison ratio not 1.00x: %q", l)
		}
	}
}

// A -count=3 transcript repeats every row; parse must collapse each
// name to one row carrying the median of every metric, keep the rows
// in first-appearance order, and gate on that median, so one slow pass
// out of three moves nothing.  The measurement floor applies to one
// median pass, not to the three passes summed.
func TestParseCollapsesRepeatedRowsToMedian(t *testing.T) {
	const counted = `BenchmarkISCASScale/s349/signals-363/sweep/lanes-64-2   1  1500000000 ns/op  299.0 detected  233.0 patterns/sec
BenchmarkISCASScale/s349/signals-363/event/lanes-64-2   1  600000000 ns/op  299.0 detected  900.0 patterns/sec
BenchmarkISCASScale/s349/signals-363/sweep/lanes-64-2   1  2100000000 ns/op  299.0 detected  160.1 patterns/sec
BenchmarkISCASScale/s349/signals-363/event/lanes-64-2   1  400000000 ns/op  299.0 detected  1100.0 patterns/sec
BenchmarkISCASScale/s349/signals-363/sweep/lanes-64-2   1  2000000000 ns/op  299.0 detected  162.9 patterns/sec
BenchmarkISCASScale/s349/signals-363/event/lanes-64-2   3  500000000 ns/op  299.0 detected  1000.0 patterns/sec  7 extra
`
	rep, err := parse(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("parsed %d rows, want the 2 distinct names", len(rep.Results))
	}
	sweep, event := rep.Results[0], rep.Results[1]
	if sweep.Engine != "sweep" || event.Engine != "event" || sweep.Lanes != 64 || sweep.Signals != 363 {
		t.Fatalf("rows out of order or dimensions lost: %+v, %+v", sweep, event)
	}
	for _, c := range []struct {
		e      Entry
		metric string
		want   float64
	}{
		{sweep, "patterns/sec", 162.9},
		{sweep, "ns/op", 2000000000},
		{sweep, "detected", 299},
		{event, "patterns/sec", 1000},
		{event, "ns/op", 500000000},
		{event, "extra", 7}, // reported by one pass only
	} {
		if got := c.e.Metrics[c.metric]; got != c.want {
			t.Errorf("%s %s = %v, want the median %v", c.e.Name, c.metric, got, c.want)
		}
	}
	if sweep.Iterations != 1 || event.Iterations != 1 {
		t.Errorf("iterations %d/%d, want the median 1", sweep.Iterations, event.Iterations)
	}

	// Against a base whose median is 160.1, the fresh 233.0/160.1/162.9
	// passes compare by their median 162.9: no regression.
	base := Report{Results: []Entry{entryFor(sweep.Name, 160.1, 2e9, 1)}}
	lines, failures := compareReports(rep, base, 25)
	if len(failures) != 0 || len(lines) != 1 || strings.Contains(lines[0], "not gated") {
		t.Fatalf("median row compare: lines %v, failures %v", lines, failures)
	}
}
