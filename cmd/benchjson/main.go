// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, so CI can upload the perf trajectory
// as an artifact instead of leaving it buried in job logs.
//
// It parses the standard benchmark result lines — including -benchmem
// columns and every custom testing.B.ReportMetric value, such as the
// engine benchmarks' patterns/sec and gate-evals/pattern — and, where
// a sub-benchmark path encodes them, lifts the fault model, engine,
// lane width, compaction mode and circuit size into dedicated fields
// (the model/engine/lanes-N naming of BenchmarkEventVsSweepTable1, the
// engine shapes of BenchmarkFaultSimEngines, the model/mode naming of
// BenchmarkCompactTable1, the circuit/signals-N naming of
// BenchmarkISCASScale, the inflight-N throughput dimension of
// BenchmarkServiceConcurrentQueries, and the workers-N one that older
// transcripts of the service benchmarks carry; their queries/sec
// metrics ride along like any other custom metric).
// Rows that share a name — a transcript from `go test -count=N` —
// collapse into one row holding the median of each metric.
//
// With -compare it additionally diffs the fresh run against a baseline
// report, matching rows by benchmark name on the throughput
// metrics — fault simulation's patterns/sec and CSSG exploration's
// states/sec — and exits nonzero when any sufficiently-measured row (at
// least 1s of benchmark time on both sides — a one-iteration row's
// throughput is scheduler noise) regressed by more than -maxdrop
// percent.  CI runs this against the base commit's transcript,
// benchmarked first on the same runner (absolute throughput is not
// comparable across machines), so an engine-throughput regression
// fails the bench-smoke job rather than silently shipping in the
// artifact.
//
// Usage:
//
//	go test -bench='...' -benchmem -benchtime=1x -run '^$' . | benchjson -out BENCH_pr4.json
//	benchjson -in bench.txt -out BENCH_pr4.json
//	benchjson -in bench.txt -out bench-fresh.json -compare bench-base.json -maxdrop 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	// Name is the full benchmark path with the trailing -GOMAXPROCS
	// suffix stripped.
	Name string `json:"name"`
	// Model, Engine and Lanes are lifted from the path segments when
	// present (e.g. EventVsSweepTable1/both/event/lanes-256).
	Model  string `json:"model,omitempty"`
	Engine string `json:"engine,omitempty"`
	Lanes  int    `json:"lanes,omitempty"`
	// Mode is the compaction pass of a CompactTable1 variant
	// (reverse/dominance/greedy/all, or matrix for the matrix-build
	// sub-benchmark).
	Mode string `json:"mode,omitempty"`
	// Circuit and Signals are the circuit-size dimension of an
	// ISCASScale variant (e.g. ISCASScale/s349/signals-363/event/...):
	// the corpus member and its signal count.
	Circuit string `json:"circuit,omitempty"`
	Signals int    `json:"signals,omitempty"`
	// Workers and Inflight are the throughput dimension of the service
	// benchmarks: the worker count older transcripts name (e.g.
	// ServiceShardThroughput/s953/workers-4), and the concurrent
	// in-flight query count (ServiceConcurrentQueries/s27/inflight-1024).
	Workers    int                `json:"workers,omitempty"`
	Inflight   int                `json:"inflight,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the artifact layout: run metadata plus every parsed entry.
type Report struct {
	GoOS    string  `json:"goos,omitempty"`
	GoArch  string  `json:"goarch,omitempty"`
	Pkg     string  `json:"pkg,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Results []Entry `json:"results"`
}

var engineNames = map[string]bool{
	"event": true, "sweep": true,
	"serial-per-pattern": true, "sweep-1": true, "event-1": true, "collapsed-1": true,
}

var modelNames = map[string]bool{
	"input-sa": true, "output-sa": true, "sa": true, "transition": true, "both": true,
}

var compactModes = map[string]bool{
	"matrix": true, "reverse": true, "dominance": true, "greedy": true, "all": true,
}

var corpusNames = map[string]bool{
	"s27": true, "s349": true, "s953": true,
}

// parseLine parses one benchmark output line, reporting ok=false for
// non-benchmark lines.  The name is kept raw; procs-suffix stripping
// and dimension lifting happen in finish, once the whole transcript's
// common suffix is known.
func parseLine(line string) (Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, false
		}
		e.Metrics[f[i+1]] = v
	}
	return e, true
}

// numericSuffix returns the trailing "-N" of a name, or "".
func numericSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

// finish strips the -GOMAXPROCS suffix and lifts the model / engine /
// lanes dimensions out of the name segments.  go test appends the
// suffix only when GOMAXPROCS > 1, and then to every line, so it is
// stripped only when every entry carries the same trailing "-N" —
// otherwise a variant name like lanes-64 would lose its own number on
// a single-CPU runner.
func finish(entries []Entry) []Entry {
	common := ""
	for i, e := range entries {
		s := numericSuffix(e.Name)
		if i == 0 {
			common = s
		} else if s != common {
			common = ""
		}
		if common == "" {
			break
		}
	}
	// A shared suffix that is really a variant's own number (a filtered
	// single-CPU transcript where every name ends in the same lane
	// width or worker count) would strip a lanes-N / workers-N segment
	// down to a bare "lanes" / "workers"; refuse the strip in that case
	// — go test's real procs suffix sits after the variant number, so
	// legitimate strips never produce a bare dimension word.
	if common != "" {
		for _, e := range entries {
			trimmed := strings.TrimSuffix(e.Name, common)
			switch trimmed[strings.LastIndex(trimmed, "/")+1:] {
			case "lanes", "signals", "workers", "inflight":
				common = ""
			}
			if common == "" {
				break
			}
		}
	}
	for i := range entries {
		e := &entries[i]
		if common != "" {
			e.Name = strings.TrimSuffix(e.Name, common)
		}
		for _, seg := range strings.Split(e.Name, "/") {
			switch {
			case engineNames[seg]:
				e.Engine = strings.TrimSuffix(seg, "-1")
				if seg == "serial-per-pattern" {
					e.Engine = "serial"
				}
			case modelNames[seg]:
				e.Model = seg
			case compactModes[seg]:
				e.Mode = seg
			case corpusNames[seg]:
				e.Circuit = seg
			case strings.HasPrefix(seg, "lanes-"):
				if n, err := strconv.Atoi(seg[len("lanes-"):]); err == nil {
					e.Lanes = n
				}
			case strings.HasPrefix(seg, "signals-"):
				if n, err := strconv.Atoi(seg[len("signals-"):]); err == nil {
					e.Signals = n
				}
			case strings.HasPrefix(seg, "workers-"):
				if n, err := strconv.Atoi(seg[len("workers-"):]); err == nil {
					e.Workers = n
				}
			case strings.HasPrefix(seg, "inflight-"):
				if n, err := strconv.Atoi(seg[len("inflight-"):]); err == nil {
					e.Inflight = n
				}
			case strings.HasPrefix(seg, "sharded-"):
				e.Engine = "sweep"
			}
		}
	}
	return entries
}

// collapse merges the rows that share a name, in first-appearance
// order, into one row holding the median of each metric over the rows
// that report it, and the median iteration count.  One pass of a
// ≥1 s benchmark row can read 30% off on a shared host; the median of
// three passes cannot be moved by one slow pass.
func collapse(entries []Entry) []Entry {
	groups := map[string][]Entry{}
	var out []Entry
	for _, e := range entries {
		if groups[e.Name] == nil {
			out = append(out, e)
		}
		groups[e.Name] = append(groups[e.Name], e)
	}
	for i := range out {
		g := groups[out[i].Name]
		if len(g) == 1 {
			continue
		}
		iters := make([]float64, len(g))
		vals := map[string][]float64{}
		for j, e := range g {
			iters[j] = float64(e.Iterations)
			for k, v := range e.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
		out[i].Iterations = int64(median(iters))
		out[i].Metrics = make(map[string]float64, len(vals))
		for k, vs := range vals {
			out[i].Metrics[k] = median(vs)
		}
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count); it sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// elapsedNS returns the total measured benchmark time of an entry in
// nanoseconds (ns/op × iterations), or 0 when ns/op is absent.  For a
// collapsed row that is the time of one median pass.
func elapsedNS(e Entry) float64 {
	return e.Metrics["ns/op"] * float64(e.Iterations)
}

// minGateElapsedNS is the measured-time floor below which a throughput
// comparison is reported but not gated: a benchtime=1x row that ran for
// well under a second flaps far beyond any sensible threshold (a ~250ms
// sweep row was observed 34% apart on back-to-back runs of an otherwise
// idle single-core runner), and gating on it would make the CI job fail
// on scheduler noise.  The rows this floor keeps gated — the multi-second
// ISCAS-scale sweeps — repeat within a few percent.
const minGateElapsedNS = 1e9

// gatedMetrics are the throughput metrics compareReports diffs: fault
// simulation's patterns/sec and CSSG exploration's settling states/sec.
var gatedMetrics = []string{"patterns/sec", "states/sec"}

// compareReports diffs the fresh run against a baseline report on
// each gated throughput metric, matching rows by full benchmark name
// (which already encodes the engine, lane width and circuit
// dimensions).  It returns human-readable comparison lines for every
// matched (row, metric) pair and a failure line for each whose
// throughput dropped more than maxDropPct while both runs measured at
// least minGateElapsedNS of benchmark time.
func compareReports(fresh, base Report, maxDropPct float64) (lines, failures []string) {
	byName := make(map[string]Entry, len(base.Results))
	for _, e := range base.Results {
		byName[e.Name] = e
	}
	for _, e := range fresh.Results {
		b, ok := byName[e.Name]
		if !ok {
			continue
		}
		for _, metric := range gatedMetrics {
			cur, ok := e.Metrics[metric]
			if !ok {
				continue
			}
			prev, ok := b.Metrics[metric]
			if !ok || prev <= 0 {
				continue
			}
			ratio := cur / prev
			line := fmt.Sprintf("%s: %.1f -> %.1f %s (%.2fx)", e.Name, prev, cur, metric, ratio)
			if elapsedNS(e) < minGateElapsedNS || elapsedNS(b) < minGateElapsedNS {
				lines = append(lines, line+" [not gated: under measurement floor]")
				continue
			}
			lines = append(lines, line)
			if ratio < 1-maxDropPct/100 {
				failures = append(failures, fmt.Sprintf(
					"%s: %s regressed %.1f%% (%.1f -> %.1f), max allowed %.0f%%",
					e.Name, metric, 100*(1-ratio), prev, cur, maxDropPct))
			}
		}
	}
	return lines, failures
}

// parse reads a whole `go test -bench` transcript.
func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if e, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, e)
			}
		}
	}
	rep.Results = collapse(finish(rep.Results))
	return rep, sc.Err()
}

func main() {
	in := flag.String("in", "", "benchmark transcript to read (default: stdin)")
	out := flag.String("out", "", "JSON file to write (default: stdout)")
	compare := flag.String("compare", "", "baseline BENCH JSON to diff against; exits 1 on a gated patterns/sec or states/sec regression")
	maxDrop := flag.Float64("maxdrop", 25, "with -compare: max tolerated patterns/sec or states/sec drop in percent")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(rep.Results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found"))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(rep.Results), *out)
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(fmt.Errorf("%s: %w", *compare, err))
		}
		lines, failures := compareReports(rep, base, *maxDrop)
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(lines) == 0 {
			fatal(fmt.Errorf("no comparable patterns/sec or states/sec rows between this run and %s", *compare))
		}
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
