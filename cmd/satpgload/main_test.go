package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netlist"
	"repro/internal/service"
)

// TestRunLoadAgainstService drives the load generator end to end
// against an in-process satpgd: every query must succeed, agree on the
// verdict, and the aggregate pattern count must match queries ×
// patterns-per-query.
func TestRunLoadAgainstService(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "iscas", "s27.ckt"))
	if err != nil {
		t.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
	}
	c, err := netlist.ParseString(string(data), "s27")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	const ntests, cycles = 64, 8
	body, err := buildRequest(string(data), c, ntests, cycles, 3)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: time.Minute}
	res, err := runLoad(client, ts.URL, body, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 24 || res.Errors != 0 {
		t.Fatalf("load run: %d ok, %d failed, want 24/0", res.Queries, res.Errors)
	}
	if res.Patterns != int64(24*ntests*cycles) {
		t.Fatalf("aggregate patterns = %d, want %d", res.Patterns, 24*ntests*cycles)
	}
	if res.Total == 0 || res.Detected == 0 {
		t.Fatalf("verdicts empty: %d/%d", res.Detected, res.Total)
	}
	rep := res.Report()
	for _, want := range []string{"queries/sec", "patterns/sec aggregate", "p99="} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	metrics, err := fetchCacheMetrics(client, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "satpgd_trace_cache_hit_rate") {
		t.Fatalf("cache metrics missing hit rate:\n%s", metrics)
	}
}

// TestRunChaosProxyValidation: the chaos mode rejects broken flag
// combinations instead of serving a proxy that injects nonsense.
func TestRunChaosProxyValidation(t *testing.T) {
	bad := []struct {
		target string
		cfg    chaos.Config
		want   string
	}{
		{"http://127.0.0.1:8714", chaos.Config{Kill: 1.5}, "fraction"},
		{"http://127.0.0.1:8714", chaos.Config{Kill: 0.6, Corrupt: 0.6}, "sum"},
		{"http://127.0.0.1:8714", chaos.Config{Stall: 0.5}, "stall"},
		{"127.0.0.1:8714", chaos.Config{}, "-chaos-target"},
	}
	for _, tc := range bad {
		err := runChaosProxy("127.0.0.1:0", tc.target, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("runChaosProxy(%q, %+v) = %v; want error mentioning %q", tc.target, tc.cfg, err, tc.want)
		}
	}
}
