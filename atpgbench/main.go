package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// specFile names the metric contract, read from the checkout root so
// the program emits exactly the metrics, with exactly the units, that
// the benchmark declares.
const specFile = "BENCHMARK.json"

// buildDir holds everything the benchmark writes: the binary, the Go
// build cache, temporary result stores and span files.
const buildDir = ".bench_build"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tmp     string // temporary directory inside the checkout
}

// report is a workload's outcome: op counts, whether every global
// check passed, and the metric values by name.
type report struct {
	attempted, failed int
	checksOK          bool
	metrics           map[string]float64
	notes             []string // human-readable lines for stderr
	tr                *tracer
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// fail counts one op as failed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "atpgbench: op failed: "+format+"\n", args...)
	}
}

// mismatch records a failed check that belongs to no single op (a
// server counter, a probe's replay); the result is then not correct.
func (r *report) mismatch(format string, args ...any) {
	r.checksOK = false
	fmt.Fprintf(os.Stderr, "atpgbench: check failed: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result object with exactly the metrics in want.
func (r *report) line(want []metricSpec) ([]byte, error) {
	out := resultLine{
		Correct:   r.checksOK && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// passCount is how many passes a run makes: the run's seconds over the
// workload's nominal pass time on a 2-CPU machine, and at least min.
// Fixing the count per workload (instead of looping on the clock)
// gives every run of a workload the same work.
func passCount(cfg config, nominal time.Duration, min int) int {
	return max(min, int(math.Round(float64(cfg.seconds)/float64(nominal))))
}

// freshHeap collects the previous pass's garbage, so every pass starts
// from a collected heap as a fresh process would.
func freshHeap() { runtime.GC() }

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloads = map[string]func(config) (*report, error){
	"paper-tables":  runPaperTables,
	"direct-iscas":  runDirectISCAS,
	"audit-service": runAuditService,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("atpgbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: paper-tables, direct-iscas or audit-service")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	secs := fs.Int("seconds", 20, "measured seconds, which set the number of passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: one untraced and one traced pass, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "atpgbench: want -workload one of %v, -seconds ≥ 1, -trace 0 or 1\n", names)
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atpgbench: %v\n", err)
		return 1
	}
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "atpgbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*secs) * time.Second, traced: *trace == 1, tmp: tmp}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atpgbench: %s: %v\n", *workload, err)
		return 1
	}
	want := spec.EndToEnd
	if cfg.traced {
		want = spec.PerLayer
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := rep.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "atpgbench: writing spans: %v\n", err)
			return 1
		}
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	out, err := rep.line(want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atpgbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	fmt.Fprintf(os.Stderr, "%-34s %16.6g (%d of %d ops)\n", "failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, m := range want {
		fmt.Fprintf(os.Stderr, "%-34s %16.6g %s\n", m.Name, rep.metrics[m.Name], m.Unit)
	}
	fmt.Println(string(out))
	return 0
}
