// Command satpgload is the load generator for satpgd: it sustains
// many concurrent coverage queries against a running server and
// reports client-side throughput (queries/sec, aggregate
// patterns/sec), latency quantiles, and the server's circuit-store,
// topology and result-store counters.
//
// Usage:
//
//	satpgload -url http://127.0.0.1:8714 -circuit examples/iscas/s953.ckt \
//	          -concurrency 64 -requests 1000
//
// Every request carries the same circuit text and the same
// deterministic random test set, so the run exercises the resident
// service: one interned circuit and one topology index serve every
// in-flight query, and each query simulates its tests against its own
// good trace.
//
// # Chaos proxy mode
//
// With -chaos-listen, satpgload instead runs a fault-injecting reverse
// proxy in front of one worker, for exercising the coordinator's
// failover paths (internal/chaos):
//
//	satpgload -chaos-listen :8801 -chaos-target http://127.0.0.1:8714 \
//	          -chaos-kill 0.25 -chaos-corrupt 0.1
//
// Point a coordinator's -peers entry at the proxy and a fraction of its
// shard dispatches die mid-request, stall, or come back mangled — the
// merged report must stay bit-identical regardless.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/netlist"
	"repro/internal/service"
)

func main() {
	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8714", "satpgd base URL")
		circuitFile = flag.String("circuit", "", "path to the .ckt circuit to query (required)")
		concurrency = flag.Int("concurrency", 16, "concurrent in-flight queries")
		requests    = flag.Int("requests", 256, "total queries to issue")
		ntests      = flag.Int("tests", 128, "random test sequences per query")
		cycles      = flag.Int("cycles", 12, "patterns per test sequence")
		seed        = flag.Int64("seed", 29, "random pattern seed")

		chaosListen  = flag.String("chaos-listen", "", "run as a chaos proxy on this address instead of generating load")
		chaosTarget  = flag.String("chaos-target", "http://127.0.0.1:8714", "worker base URL the chaos proxy forwards to")
		chaosKill    = flag.Float64("chaos-kill", 0, "fraction of proxied requests whose connection is dropped mid-response")
		chaosStall   = flag.Float64("chaos-stall", 0, "fraction of proxied requests delayed by -chaos-stall-for")
		chaosStallD  = flag.Duration("chaos-stall-for", 0, "delay applied to stalled requests")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "fraction of proxied responses with mangled bodies")
		chaosSeed    = flag.Int64("chaos-seed", 1, "chaos decision seed")
	)
	flag.Parse()
	if *chaosListen != "" {
		cfg := chaos.Config{
			Kill: *chaosKill, Stall: *chaosStall, StallFor: *chaosStallD,
			Corrupt: *chaosCorrupt, Seed: *chaosSeed,
		}
		if err := runChaosProxy(*chaosListen, *chaosTarget, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *circuitFile == "" {
		fatal(fmt.Errorf("-circuit is required"))
	}
	if *concurrency < 1 || *requests < 1 {
		fatal(fmt.Errorf("-concurrency and -requests must be positive"))
	}
	text, err := os.ReadFile(*circuitFile)
	if err != nil {
		fatal(err)
	}
	c, err := netlist.ParseString(string(text), *circuitFile)
	if err != nil {
		fatal(err)
	}
	body, err := buildRequest(string(text), c, *ntests, *cycles, *seed)
	if err != nil {
		fatal(err)
	}

	client := &http.Client{Timeout: 10 * time.Minute}
	res, err := runLoad(client, *baseURL, body, *concurrency, *requests)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Report())
	if metrics, err := fetchServerMetrics(client, *baseURL); err == nil {
		fmt.Print(metrics)
	}
}

// buildRequest assembles the coverage request every query repeats:
// deterministic random patterns, no declared responses (the server
// judges against its own good machine).
func buildRequest(text string, c *netlist.Circuit, ntests, cycles int, seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(c.NumInputs()) - 1
	tests := make([]service.TestJSON, ntests)
	for i := range tests {
		pats := make([]uint64, cycles)
		for t := range pats {
			pats[t] = rng.Uint64() & mask
		}
		tests[i] = service.TestJSON{Patterns: pats}
	}
	return json.Marshal(&service.CoverageRequest{CircuitText: text, Tests: tests})
}

// loadResult aggregates one load run.
type loadResult struct {
	Queries   int           // completed successfully
	Errors    int           // failed (non-200 or transport error)
	Elapsed   time.Duration // wall time of the whole run
	Patterns  int64         // patterns simulated, summed over responses
	Detected  int           // per-query detected count (must agree across queries)
	Total     int           // per-query fault universe size
	Latencies []time.Duration
}

// quantile returns the q-quantile latency (sorted input).
func (r *loadResult) quantile(q float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(r.Latencies)-1))
	return r.Latencies[i]
}

// Report renders the client-side summary.
func (r *loadResult) Report() string {
	var b strings.Builder
	secs := r.Elapsed.Seconds()
	fmt.Fprintf(&b, "queries: %d ok, %d failed in %v\n", r.Queries, r.Errors, r.Elapsed.Round(time.Millisecond))
	if secs > 0 {
		fmt.Fprintf(&b, "throughput: %.1f queries/sec, %.0f patterns/sec aggregate\n",
			float64(r.Queries)/secs, float64(r.Patterns)/secs)
	}
	fmt.Fprintf(&b, "coverage per query: %d/%d faults\n", r.Detected, r.Total)
	fmt.Fprintf(&b, "latency: p50=%v p95=%v p99=%v max=%v\n",
		r.quantile(0.50).Round(time.Microsecond), r.quantile(0.95).Round(time.Microsecond),
		r.quantile(0.99).Round(time.Microsecond), r.quantile(1.0).Round(time.Microsecond))
	return b.String()
}

// runLoad issues `requests` identical coverage queries across
// `concurrency` goroutines and aggregates the outcome.  Every
// successful response must report the same verdict counts — a
// divergence is an error, not a statistic.
func runLoad(client *http.Client, baseURL string, body []byte, concurrency, requests int) (*loadResult, error) {
	res := &loadResult{Latencies: make([]time.Duration, 0, requests)}
	var mu sync.Mutex
	var next atomic.Int64
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(requests) {
				t0 := time.Now()
				resp, err := client.Post(baseURL+"/v1/coverage", "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err == nil && resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
					err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
				}
				var cr service.CoverageResponse
				if err == nil {
					err = json.NewDecoder(resp.Body).Decode(&cr)
				}
				if resp != nil {
					resp.Body.Close()
				}
				mu.Lock()
				if err != nil {
					res.Errors++
					if firstErr == nil {
						firstErr = err
					}
				} else if res.Queries > 0 && (cr.Detected != res.Detected || cr.Total != res.Total) {
					res.Errors++
					if firstErr == nil {
						firstErr = fmt.Errorf("verdict diverged across queries: %d/%d vs %d/%d",
							cr.Detected, cr.Total, res.Detected, res.Total)
					}
				} else {
					res.Queries++
					res.Patterns += cr.Patterns
					res.Detected, res.Total = cr.Detected, cr.Total
					res.Latencies = append(res.Latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	if res.Queries == 0 && firstErr != nil {
		return nil, firstErr
	}
	return res, firstErr
}

// runChaosProxy validates the chaos configuration and serves the
// fault-injecting proxy until the process is killed.
func runChaosProxy(listen, target string, cfg chaos.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !strings.HasPrefix(target, "http://") && !strings.HasPrefix(target, "https://") {
		return fmt.Errorf("invalid -chaos-target %q (want http://host:port)", target)
	}
	p := chaos.NewProxy(strings.TrimSuffix(target, "/"), cfg)
	fmt.Printf("chaos proxy on %s -> %s (kill=%.2f stall=%.2f/%v corrupt=%.2f)\n",
		listen, target, cfg.Kill, cfg.Stall, cfg.StallFor, cfg.Corrupt)
	return http.ListenAndServe(listen, p)
}

// fetchServerMetrics pulls the server-side counters the load run
// exercised: the circuit and result stores, topology builds and the
// in-flight gauge.
func fetchServerMetrics(client *http.Client, baseURL string) (string, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "_store_") || strings.Contains(line, "topology") || strings.Contains(line, "inflight") {
			fmt.Fprintln(&b, "server:", line)
		}
	}
	return b.String(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satpgload:", err)
	os.Exit(1)
}
