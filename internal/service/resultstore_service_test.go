package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	satpg "repro"
	"repro/internal/resultstore"
	"repro/internal/service"
)

// The persistent result-store integration: a repeated audit must be
// answered from the store without re-simulating — observable as the
// "from_store" response field, a store-hit counter tick, and a
// patterns counter that does not move — and the store must survive a
// cold process restart when backed by a directory.

func newStoredServer(t *testing.T, dir string) *service.Server {
	t.Helper()
	store, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := service.New(service.Config{Store: store})
	t.Cleanup(srv.Close)
	return srv
}

// TestCoverageServedFromStore: the second identical coverage query
// replays the stored response instead of re-simulating.
func TestCoverageServedFromStore(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := newStoredServer(t, t.TempDir())
	req := &service.CoverageRequest{CircuitText: text, Tests: randomTests(c, 64, 8, 19)}

	first := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", req))
	if first.FromStore {
		t.Fatal("first query claims to come from the store")
	}
	patterns := metricValue(t, srv, "satpgd_patterns_simulated_total")
	if patterns == 0 {
		t.Fatal("first query simulated nothing")
	}

	second := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", req))
	if !second.FromStore {
		t.Fatal("repeated query was re-simulated instead of replayed")
	}
	if got := metricValue(t, srv, "satpgd_patterns_simulated_total"); got != patterns {
		t.Fatalf("patterns moved %d -> %d on a store hit — the query re-simulated", patterns, got)
	}
	if hits := metricValue(t, srv, "satpgd_result_store_hits_total"); hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}
	// The replayed verdicts are the original ones.
	second.FromStore = false
	if second.Detected != first.Detected || second.Total != first.Total {
		t.Fatalf("store replay %d/%d, original %d/%d", second.Detected, second.Total, first.Detected, first.Total)
	}
	for i := range second.PerFault {
		if second.PerFault[i] != first.PerFault[i] {
			t.Fatalf("fault %d: replay %+v, original %+v", i, second.PerFault[i], first.PerFault[i])
		}
	}

	// A query differing in a verdict-affecting dimension must miss.
	other := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: req.Tests, Faults: "transition",
	}))
	if other.FromStore {
		t.Fatal("a different fault universe hit the stuck-at entry")
	}
}

// TestStoreSurvivesRestart: a fresh server over the same store
// directory answers the first query of its life from disk.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	text, c := loadISCAS(t, "s27")
	req := &service.CoverageRequest{CircuitText: text, Tests: randomTests(c, 64, 8, 21)}

	warm := newStoredServer(t, dir)
	want := decodeCoverage(t, postJSON(t, warm, "/v1/coverage", req))

	cold := newStoredServer(t, dir)
	got := decodeCoverage(t, postJSON(t, cold, "/v1/coverage", req))
	if !got.FromStore {
		t.Fatal("cold restart re-simulated a stored query")
	}
	if n := metricValue(t, cold, "satpgd_patterns_simulated_total"); n != 0 {
		t.Fatalf("cold server simulated %d patterns for a stored query", n)
	}
	if got.Detected != want.Detected || got.Total != want.Total {
		t.Fatalf("restart replay %d/%d, original %d/%d", got.Detected, got.Total, want.Detected, want.Total)
	}
}

// TestCompactServedFromStore: compaction responses persist the same
// way.
func TestCompactServedFromStore(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	res, err := satpg.Run(context.Background(), c, satpg.InputStuckAt, satpg.Options{Seed: 3, Flow: satpg.FlowDirect})
	if err != nil {
		t.Fatal(err)
	}
	progs := satpg.ProgramsForCircuit(c, res)
	wire := make([]service.ProgramJSON, len(progs))
	for i, p := range progs {
		wire[i] = service.ProgramJSON{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected}
	}
	srv := newStoredServer(t, t.TempDir())
	req := &service.CompactRequest{CircuitText: text, Mode: "all", Programs: wire}

	decode := func(kind string) *service.CompactResponse {
		rec := postJSON(t, srv, "/v1/compact", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s compact failed: %d %s", kind, rec.Code, rec.Body.String())
		}
		var resp service.CompactResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	first := decode("first")
	if first.FromStore {
		t.Fatal("first compaction claims to come from the store")
	}
	second := decode("second")
	if !second.FromStore {
		t.Fatal("repeated compaction was recomputed instead of replayed")
	}
	if second.After != first.After || len(second.Programs) != len(first.Programs) {
		t.Fatalf("store replay kept %d programs, original %d", second.After, first.After)
	}
}
