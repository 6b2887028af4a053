package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	satpg "repro"
	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/service"
)

// loadISCAS reads one of the committed ISCAS-class circuits as text
// and parsed form.
func loadISCAS(t testing.TB, name string) (string, *netlist.Circuit) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "iscas", name+".ckt"))
	if err != nil {
		t.Fatalf("%v (regenerate with `go run ./examples/iscas`)", err)
	}
	c, err := netlist.ParseString(string(data), name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), c
}

// randomTests draws deterministic random pattern sequences (no
// declared responses — the expected-optional path).
func randomTests(c *netlist.Circuit, n, cycles int, seed int64) []service.TestJSON {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(c.NumInputs()) - 1
	tests := make([]service.TestJSON, n)
	for i := range tests {
		pats := make([]uint64, cycles)
		for t := range pats {
			pats[t] = rng.Uint64() & mask
		}
		tests[i] = service.TestJSON{Patterns: pats}
	}
	return tests
}

func postJSON(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeCoverage(t testing.TB, rec *httptest.ResponseRecorder) *service.CoverageResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("coverage request failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp service.CoverageResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, rec.Body.String())
	}
	return &resp
}

// TestCoverageEndpointMatchesDirect: the HTTP verdicts must be
// bit-identical to calling the coverage engine directly.
func TestCoverageEndpointMatchesDirect(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	tests := randomTests(c, 96, 10, 41)

	resp := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests,
	}))

	universe := faults.SelectUniverse(c, faults.InputSA, faults.SelStuckAt)
	at := make([]atpg.Test, len(tests))
	for i, ts := range tests {
		at[i] = atpg.Test{Patterns: ts.Patterns}
	}
	want, err := atpg.CoverageOfCtx(context.Background(), c, universe, at, atpg.CoverageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != want.Total || resp.Detected != want.Detected {
		t.Fatalf("service %d/%d, direct %d/%d", resp.Detected, resp.Total, want.Detected, want.Total)
	}
	if resp.Detected == 0 {
		t.Fatal("nothing detected; the comparison is vacuous")
	}
	for i, v := range resp.PerFault {
		fc := want.PerFault[i]
		if v.Detected != fc.Detected || v.Test != fc.TestIndex || v.Cycle != fc.Cycle {
			t.Fatalf("fault %d: service {%v %d %d}, direct {%v %d %d}",
				i, v.Detected, v.Test, v.Cycle, fc.Detected, fc.TestIndex, fc.Cycle)
		}
	}
}

// TestCoverageStreaming: NDJSON mode must emit monotone per-batch
// progress lines and a final report identical to the non-streaming
// verdict.
func TestCoverageStreaming(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	tests := randomTests(c, 200, 8, 7) // > 64 tests → several batches

	plain := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests,
	}))

	rec := postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests, Stream: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("streaming request failed: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("streaming Content-Type = %q", ct)
	}
	var final *service.CoverageResponse
	batches, lastDetected := 0, 0
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch kind.Kind {
		case "batch":
			var p service.BatchProgress
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			if p.Detected < lastDetected {
				t.Fatalf("cumulative detections went backwards: %d after %d", p.Detected, lastDetected)
			}
			lastDetected = p.Detected
			batches++
		case "report":
			var r service.CoverageResponse
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			final = &r
		default:
			t.Fatalf("unknown NDJSON kind %q", kind.Kind)
		}
	}
	wantBatches := (len(tests) + 63) / 64
	if batches != wantBatches {
		t.Fatalf("%d progress lines for %d tests, want %d", batches, len(tests), wantBatches)
	}
	if final == nil {
		t.Fatal("no final report line")
	}
	if final.Detected != plain.Detected || final.Total != plain.Total {
		t.Fatalf("streaming report %d/%d, plain %d/%d", final.Detected, final.Total, plain.Detected, plain.Total)
	}
	for i := range final.PerFault {
		if final.PerFault[i] != plain.PerFault[i] {
			t.Fatalf("fault %d verdict differs between streaming and plain", i)
		}
	}
	_ = c
}

// TestCoordinatorMergesPeerShards: a coordinator over N worker servers
// must return verdicts bit-identical to one unsharded server.
func TestCoordinatorMergesPeerShards(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 96, 10, 13)

	single := service.New(service.Config{})
	want := decodeCoverage(t, postJSON(t, single, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests,
	}))

	for _, shards := range []int{1, 2, 4} {
		var peers []string
		var backends []*httptest.Server
		for i := 0; i < shards; i++ {
			ts := httptest.NewServer(service.New(service.Config{}))
			defer ts.Close()
			backends = append(backends, ts)
			peers = append(peers, ts.URL)
		}
		coord := service.New(service.Config{Peers: peers})
		defer coord.Close()
		got := decodeCoverage(t, postJSON(t, coord, "/v1/coverage", &service.CoverageRequest{
			CircuitText: text, Tests: tests,
		}))
		if got.Detected != want.Detected || got.Total != want.Total {
			t.Fatalf("%d shards: merged %d/%d, single %d/%d", shards, got.Detected, got.Total, want.Detected, want.Total)
		}
		for i := range got.PerFault {
			if got.PerFault[i] != want.PerFault[i] {
				t.Fatalf("%d shards: fault %d merged %+v, single %+v", shards, i, got.PerFault[i], want.PerFault[i])
			}
		}
		_ = backends
	}
}

// TestShardRequestCarriesOwnership: a sharded request must mark
// exactly the classes it simulated, and reject out-of-range indices.
func TestShardRequestCarriesOwnership(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	tests := randomTests(c, 64, 8, 3)

	seen := make([]int, len(faults.SelectUniverse(c, faults.InputSA, faults.SelStuckAt)))
	for shard := 0; shard < 2; shard++ {
		resp := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
			CircuitText: text, Tests: tests, Shard: shard, Shards: 2,
		}))
		if resp.Shards != 2 || resp.Shard != shard {
			t.Fatalf("response claims shard %d/%d, want %d/2", resp.Shard, resp.Shards, shard)
		}
		if len(resp.Owned) == 0 {
			t.Fatal("sharded response has no ownership mask")
		}
		for i := range seen {
			if resp.Owned[i/64]>>uint(i%64)&1 == 1 {
				seen[i]++
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("fault %d owned by %d shards, want exactly 1", i, n)
		}
	}

	rec := postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests, Shard: 5, Shards: 2,
	})
	if rec.Code == http.StatusOK || !strings.Contains(rec.Body.String(), "out of range") {
		t.Fatalf("out-of-range shard = %d %s; want rejection", rec.Code, rec.Body.String())
	}
}

// TestCircuitInterning: submitting the same circuit twice must reuse
// the canonical parsed pointer (the trace/topology cache key).
func TestCircuitInterning(t *testing.T) {
	text, _ := loadISCAS(t, "s27")
	st := service.NewCircuitStore(0)
	id1, c1, err := st.Intern(text, "a")
	if err != nil {
		t.Fatal(err)
	}
	id2, c2, err := st.Intern(text, "b")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 || c1 != c2 {
		t.Fatalf("same text interned twice: ids %q/%q, pointers %p/%p", id1, id2, c1, c2)
	}
	if stats := st.Stats(); stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Fatalf("store stats after re-intern: %+v", stats)
	}
}

// TestCircuitSubmitThenQueryByID: the /v1/circuits → /v1/coverage
// two-step must work and miss the parser on the second step.
func TestCircuitSubmitThenQueryByID(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	req := httptest.NewRequest("POST", "/v1/circuits", strings.NewReader(text))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("circuit submit failed: %d %s", rec.Code, rec.Body.String())
	}
	var info service.CircuitInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Gates != c.NumGates() || info.Inputs != c.NumInputs() {
		t.Fatalf("circuit info %+v does not match parsed circuit", info)
	}
	resp := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		Circuit: info.ID, Tests: randomTests(c, 64, 8, 5),
	}))
	if resp.CircuitID != info.ID {
		t.Fatalf("coverage ran against %q, want %q", resp.CircuitID, info.ID)
	}

	rec2 := postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		Circuit: "deadbeef00000000", Tests: randomTests(c, 1, 2, 1),
	})
	if rec2.Code != http.StatusBadRequest || !strings.Contains(rec2.Body.String(), "unknown circuit id") {
		t.Fatalf("unknown id = %d %s; want 400 naming the id", rec2.Code, rec2.Body.String())
	}
}

// TestRequestValidation: bad keyword fields must be rejected with a
// 400 listing the valid choices, like cmd/satpg's flags — before the
// result store is probed, so a malformed query is not a store miss.
func TestRequestValidation(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := newStoredServer(t, t.TempDir())
	tests := randomTests(c, 1, 2, 1)
	for _, tc := range []struct {
		req  service.CoverageRequest
		want string
	}{
		{service.CoverageRequest{Tests: tests}, "circuit or circuit_text is required"},
		{service.CoverageRequest{CircuitText: text, Model: "both", Tests: tests}, "input or output"},
		{service.CoverageRequest{CircuitText: text, Faults: "stuckat", Tests: tests}, "sa, transition or both"},
	} {
		rec := postJSON(t, srv, "/v1/coverage", &tc.req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Fatalf("request %+v = %d %s; want 400 containing %q", tc.req, rec.Code, rec.Body.String(), tc.want)
		}
	}
	// Compaction rejects an unknown mode, and generation rejects a
	// negative or over-cap walk count or walk length, and a walk count
	// × length past its cap with each field under its own, before any
	// work.
	for _, tc := range []struct {
		path string
		req  any
		want string
	}{
		{"/v1/compact", &service.CompactRequest{CircuitText: text, Mode: "fast"}, "none, reverse, dominance, greedy or all"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text, RandomSeqs: -1}, "RandomSequences"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text, RandomLen: -1}, "RandomLength"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text, RandomSeqs: service.MaxRandomSeqs + 1}, "random_seqs"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text, RandomSeqs: 1_000_000_000}, "random_seqs"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text, RandomLen: service.MaxRandomLen + 1}, "random_len"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text, RandomSeqs: service.MaxRandomSeqs, RandomLen: service.MaxRandomLen}, "random_seqs × random_len"},
		{"/v1/generate", &service.GenerateRequest{CircuitText: text,
			RandomSeqs: service.MaxRandomVectors/service.MaxRandomLen + 1, RandomLen: service.MaxRandomLen}, "random_seqs × random_len"},
	} {
		rec := postJSON(t, srv, tc.path, tc.req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Fatalf("%s %+v = %d %s; want 400 containing %q", tc.path, tc.req, rec.Code, rec.Body.String(), tc.want)
		}
	}
	for _, name := range []string{
		"satpgd_result_store_misses_total", "satpgd_generate_queries_total", "satpgd_patterns_simulated_total",
		"satpgd_faults_measured_total",
	} {
		if n := metricValue(t, srv, name); n != 0 {
			t.Errorf("rejected requests moved %s to %d", name, n)
		}
	}
}

// TestOversizedBodyRejected: every POST endpoint answers 413 to a body
// past MaxRequestBytes instead of buffering it.
func TestOversizedBodyRejected(t *testing.T) {
	srv := service.New(service.Config{})
	pad := strings.Repeat("x", service.MaxRequestBytes)
	for path, body := range map[string]string{
		"/v1/circuits": pad + "x",
		"/v1/coverage": `{"circuit_text":"` + pad + `"}`,
		"/v1/generate": `{"circuit_text":"` + pad + `"}`,
		"/v1/compact":  `{"circuit_text":"` + pad + `"}`,
	} {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d %s; want 413", path, len(body), rec.Code, rec.Body.String())
		}
	}
}

// TestCompactEndpointPreservesCoverage: compaction over HTTP must keep
// the measured per-fault coverage bit-identical.
func TestCompactEndpointPreservesCoverage(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	res, err := satpg.Run(context.Background(), c, satpg.InputStuckAt, satpg.Options{Seed: 3, Flow: satpg.FlowDirect})
	if err != nil {
		t.Fatal(err)
	}
	progs := satpg.ProgramsForCircuit(c, res)
	if len(progs) < 2 {
		t.Fatalf("ATPG produced %d programs; compaction test needs more", len(progs))
	}
	wire := make([]service.ProgramJSON, len(progs))
	for i, p := range progs {
		wire[i] = service.ProgramJSON{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected}
	}
	srv := service.New(service.Config{})
	rec := postJSON(t, srv, "/v1/compact", &service.CompactRequest{
		CircuitText: text, Mode: "all", Programs: wire,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp service.CompactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.After > resp.Before || resp.After != len(resp.Programs) {
		t.Fatalf("compaction bookkeeping: before=%d after=%d programs=%d", resp.Before, resp.After, len(resp.Programs))
	}
	// Replay both programs through the tester-side measurement; the
	// per-fault verdicts must agree.
	toProgs := func(w []service.ProgramJSON) []satpg.Program {
		out := make([]satpg.Program, len(w))
		for i, p := range w {
			out[i] = satpg.Program{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected}
		}
		return out
	}
	before, err := satpg.MeasureProgramCoverage(c, progs, satpg.InputStuckAt, satpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := satpg.MeasureProgramCoverage(c, toProgs(resp.Programs), satpg.InputStuckAt, satpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.VerdictsEqual(before) {
		t.Fatalf("compaction changed coverage: %d/%d before, %d/%d after",
			before.Detected, before.Total, after.Detected, after.Total)
	}
}

// TestConcurrentIdenticalQueries: many in-flight identical queries
// must agree bit-for-bit and lean on the shared caches (the
// singleflight makes N concurrent good runs cost ~1).
func TestConcurrentIdenticalQueries(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	tests := randomTests(c, 64, 8, 11)
	body := &service.CoverageRequest{CircuitText: text, Tests: tests}

	want := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", body))

	const n = 32
	responses := make([]*service.CoverageResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = decodeCoverage(t, postJSON(t, srv, "/v1/coverage", body))
		}(i)
	}
	wg.Wait()
	for i, resp := range responses {
		if resp.Detected != want.Detected || resp.Total != want.Total {
			t.Fatalf("query %d: %d/%d, want %d/%d", i, resp.Detected, resp.Total, want.Detected, want.Total)
		}
		for fi := range resp.PerFault {
			if resp.PerFault[fi] != want.PerFault[fi] {
				t.Fatalf("query %d fault %d verdict diverged", i, fi)
			}
		}
	}
	if m := srv.Metrics(); m.CoverageQueries.Load() != n+1 {
		t.Fatalf("coverage query counter = %d, want %d", m.CoverageQueries.Load(), n+1)
	}
}

// TestMetricsEndpoint: the counters must render and move.
func TestMetricsEndpoint(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: randomTests(c, 64, 8, 2),
	}))
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"satpgd_coverage_queries_total 1",
		"satpgd_patterns_simulated_total",
		"satpgd_trace_cache_hit_rate",
		"satpgd_topology_builds_total",
		"satpgd_inflight_requests",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, out)
		}
	}

	hreq := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	srv.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || hrec.Body.String() != "ok\n" {
		t.Fatalf("/healthz = %d %q", hrec.Code, hrec.Body.String())
	}

	preq := httptest.NewRequest("GET", "/debug/pprof/cmdline", nil)
	prec := httptest.NewRecorder()
	srv.ServeHTTP(prec, preq)
	if prec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", prec.Code)
	}
}

// TestExpectedOptionalMatchesDeclared: for tests whose declared
// responses equal the good machine's, the expected-optional path must
// produce the same verdicts as the declared-response path.
func TestExpectedOptionalMatchesDeclared(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	res, err := satpg.Run(context.Background(), c, satpg.InputStuckAt, satpg.Options{Seed: 9, Flow: satpg.FlowDirect})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) == 0 {
		t.Fatal("no generated tests")
	}
	srv := service.New(service.Config{})
	declared := make([]service.TestJSON, len(res.Tests))
	bare := make([]service.TestJSON, len(res.Tests))
	for i, ts := range res.Tests {
		declared[i] = service.TestJSON{Patterns: ts.Patterns, Expected: ts.Expected}
		bare[i] = service.TestJSON{Patterns: ts.Patterns}
	}
	a := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{CircuitText: text, Tests: declared}))
	b := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{CircuitText: text, Tests: bare}))
	if a.Detected != b.Detected {
		t.Fatalf("declared %d detected, expected-optional %d", a.Detected, b.Detected)
	}
	for i := range a.PerFault {
		if a.PerFault[i].Detected != b.PerFault[i].Detected {
			t.Fatalf("fault %d: declared %v, expected-optional %v", i, a.PerFault[i].Detected, b.PerFault[i].Detected)
		}
	}
	if a.Detected == 0 {
		t.Fatal("nothing detected; comparison vacuous")
	}
}

// TestGenerateReportsUnobservable: /v1/generate reports the direct
// flow's structurally proved untestable faults on s27 exactly as the
// library counts them.
func TestGenerateReportsUnobservable(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	res, err := atpg.RunDirectCtx(context.Background(), c, faults.InputSA, faults.InputUniverse(c), atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unobservable == 0 {
		t.Fatalf("s27 has dead logic, yet nothing was proved unobservable: %s", res.Summary())
	}
	rec := postJSON(t, service.New(service.Config{}), "/v1/generate",
		&service.GenerateRequest{CircuitText: text, Flow: "direct", Seed: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("generate failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp service.GenerateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Unobservable != res.Unobservable || resp.Untestable != res.Untestable || resp.Covered != res.Covered {
		t.Fatalf("response unobservable=%d untestable=%d covered=%d, library %d/%d/%d",
			resp.Unobservable, resp.Untestable, resp.Covered, res.Unobservable, res.Untestable, res.Covered)
	}
}

// TestGenerateIgnoresRemovedPodemFields: the request fields of the
// deleted PODEM phase are unknown fields now, which the decoder
// ignores, so an old client that still sends them, with values the
// phase's validation used to reject, gets the same answer as a bare
// request.
func TestGenerateIgnoresRemovedPodemFields(t *testing.T) {
	text, _ := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	generate := func(body any) service.GenerateResponse {
		t.Helper()
		rec := postJSON(t, srv, "/v1/generate", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("generate %+v = %d %s; want 200", body, rec.Code, rec.Body.String())
		}
		var resp service.GenerateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	bare := generate(&service.GenerateRequest{CircuitText: text, Flow: "direct", Seed: 1})
	old := generate(map[string]any{
		"circuit_text": text, "flow": "direct", "seed": 1,
		"skip_podem": true, "podem_budget": -1, "podem_cycles": 99,
	})
	if len(bare.Tests) == 0 || !reflect.DeepEqual(old.Tests, bare.Tests) || old.Covered != bare.Covered {
		t.Fatalf("with the removed fields: %d tests covering %d; bare request: %d tests covering %d",
			len(old.Tests), old.Covered, len(bare.Tests), bare.Covered)
	}
}

// TestRemovedLanesFieldIgnored: the lane-width request field is gone
// with the 256-lane simulator, so lanes is an unknown field every
// endpoint ignores: a request naming the old width or a width that
// was never valid gets the bare request's answer.
func TestRemovedLanesFieldIgnored(t *testing.T) {
	checkRemovedFieldIgnored(t, "lanes", 256, 7)
}

// TestRemovedWorkersFieldIgnored: the worker-count request field is
// gone with the option (GOMAXPROCS sizes fault simulation), so no
// request can size the server's goroutine pools, not even with a
// count past any machine's or a negative one.
func TestRemovedWorkersFieldIgnored(t *testing.T) {
	checkRemovedFieldIgnored(t, "workers", 1<<30, -1)
}

// checkRemovedFieldIgnored posts s27 coverage, compaction and
// direct-flow generation requests (default walk counts) bare and with
// the removed field set to each value, and requires every answer to be
// 200 with the bare request's verdicts, kept programs and tests.
func checkRemovedFieldIgnored(t *testing.T, field string, values ...int) {
	t.Helper()
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 70, 6, 23)
	res, err := satpg.Run(context.Background(), c, satpg.InputStuckAt, satpg.Options{Seed: 3, Flow: satpg.FlowDirect})
	if err != nil {
		t.Fatal(err)
	}
	var progs []service.ProgramJSON
	for _, p := range satpg.ProgramsForCircuit(c, res) {
		progs = append(progs, service.ProgramJSON{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected})
	}
	srv := service.New(service.Config{})
	post := func(path string, body map[string]any, out any) {
		t.Helper()
		rec := postJSON(t, srv, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s with %s=%v = %d %s; want 200", path, field, body[field], rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	with := func(body map[string]any, v int) map[string]any {
		out := map[string]any{field: v}
		for k, x := range body {
			out[k] = x
		}
		return out
	}
	cov := map[string]any{"circuit_text": text, "faults": "both", "tests": tests}
	cmp := map[string]any{"circuit_text": text, "programs": progs}
	gen := map[string]any{"circuit_text": text, "flow": "direct", "seed": 1}
	var bareCov service.CoverageResponse
	var bareCmp service.CompactResponse
	var bareGen service.GenerateResponse
	post("/v1/coverage", cov, &bareCov)
	post("/v1/compact", cmp, &bareCmp)
	post("/v1/generate", gen, &bareGen)
	if bareCov.Detected == 0 || bareCmp.After == 0 || len(bareGen.Tests) == 0 {
		t.Fatalf("bare requests answered nothing: %d detected, %d kept, %d tests",
			bareCov.Detected, bareCmp.After, len(bareGen.Tests))
	}
	for _, v := range values {
		var gotCov service.CoverageResponse
		var gotCmp service.CompactResponse
		var gotGen service.GenerateResponse
		post("/v1/coverage", with(cov, v), &gotCov)
		post("/v1/compact", with(cmp, v), &gotCmp)
		post("/v1/generate", with(gen, v), &gotGen)
		if gotCov.Detected != bareCov.Detected || gotCov.Workers != bareCov.Workers || !reflect.DeepEqual(gotCov.PerFault, bareCov.PerFault) {
			t.Errorf("coverage at %s=%d: %d detected on %d workers, bare %d on %d, or per-fault verdicts differ",
				field, v, gotCov.Detected, gotCov.Workers, bareCov.Detected, bareCov.Workers)
		}
		if gotCmp.Detected != bareCmp.Detected || !reflect.DeepEqual(gotCmp.Kept, bareCmp.Kept) || !reflect.DeepEqual(gotCmp.Programs, bareCmp.Programs) {
			t.Errorf("compact at %s=%d: kept %v covering %d, bare %v covering %d, or kept programs differ",
				field, v, gotCmp.Kept, gotCmp.Detected, bareCmp.Kept, bareCmp.Detected)
		}
		if gotGen.Covered != bareGen.Covered || !reflect.DeepEqual(gotGen.Tests, bareGen.Tests) {
			t.Errorf("generate at %s=%d: %d tests covering %d, bare %d covering %d",
				field, v, len(gotGen.Tests), gotGen.Covered, len(bareGen.Tests), bareGen.Covered)
		}
	}
}
