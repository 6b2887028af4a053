package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/service"
)

// The coordinator failure-injection suite: workers die mid-request,
// refuse connections, stall past the dispatch deadline, or return
// garbage — and the merged report must stay bit-identical to a
// single-process measurement, because the shard partition is a pure
// function of (universe, shard count) no matter which executor ends up
// running each shard.

// fastDispatch is the retry tuning every failover test uses: real
// backoff shapes, collapsed to test-friendly durations.
func fastDispatch(cfg service.Config) service.Config {
	cfg.ProbeInterval = -1 // probes off; dispatch outcomes drive health
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 5 * time.Millisecond
	return cfg
}

// newCoordinator builds a Server whose probe goroutine is stopped at
// test exit.
func newCoordinator(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	srv := service.New(cfg)
	t.Cleanup(srv.Close)
	return srv
}

// newWorker starts one worker server, closed at test exit.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{}))
	t.Cleanup(ts.Close)
	return ts
}

// deadPeer returns a URL that refuses connections: a server started
// and immediately closed, so the port is provably dead.
func deadPeer(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

// chaosWorker starts a worker behind a fault-injecting proxy and
// returns the proxy's URL.
func chaosWorker(t *testing.T, cfg chaos.Config) string {
	t.Helper()
	backend := newWorker(t)
	px := httptest.NewServer(chaos.NewProxy(backend.URL, cfg))
	t.Cleanup(px.Close)
	return px.URL
}

// metricValue reads one un-labelled counter off the /metrics endpoint.
func metricValue(t *testing.T, h http.Handler, name string) int64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s = %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// parityCorpus returns the acceptance corpus: a random feedback
// circuit plus the committed ISCAS translations, as netlist text.
func parityCorpus(t *testing.T) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	rc, ok := randckt.New(rng, randckt.Config{
		MinInputs: 4, MaxInputs: 6,
		MinGates: 40, MaxGates: 60,
	})
	if !ok {
		t.Fatal("no stable random circuit at seed 41")
	}
	corpus := map[string]string{"randckt": rc.String()}
	s27, _ := loadISCAS(t, "s27")
	corpus["s27"] = s27
	if !testing.Short() {
		s349, _ := loadISCAS(t, "s349")
		corpus["s349"] = s349
	}
	return corpus
}

// assertCoverageParity queries both servers with the same request and
// requires per-fault identical verdicts.
func assertCoverageParity(t *testing.T, coord, single http.Handler, req *service.CoverageRequest) {
	t.Helper()
	want := decodeCoverage(t, postJSON(t, single, "/v1/coverage", req))
	got := decodeCoverage(t, postJSON(t, coord, "/v1/coverage", req))
	if got.Detected != want.Detected || got.Total != want.Total {
		t.Fatalf("coordinator %d/%d, single-process %d/%d", got.Detected, got.Total, want.Detected, want.Total)
	}
	if len(got.PerFault) != len(want.PerFault) {
		t.Fatalf("coordinator returned %d per-fault verdicts, single %d", len(got.PerFault), len(want.PerFault))
	}
	for i := range got.PerFault {
		if got.PerFault[i] != want.PerFault[i] {
			t.Fatalf("fault %d: coordinator %+v, single %+v", i, got.PerFault[i], want.PerFault[i])
		}
	}
}

// TestCoordinatorSurvivesKilledPeer is the headline acceptance case:
// four workers, one of which slams the connection shut on every
// request, and the coordinator must still answer 200 with a merged
// report bit-identical to the single-process run — for the random
// feedback circuit and the ISCAS corpus, under all three fault
// universes.
func TestCoordinatorSurvivesKilledPeer(t *testing.T) {
	single := service.New(service.Config{})
	for name, text := range parityCorpus(t) {
		c, err := netlist.ParseString(text, name)
		if err != nil {
			t.Fatal(err)
		}
		tests := randomTests(c, 64, 8, 23)
		peers := []string{
			newWorker(t).URL,
			chaosWorker(t, chaos.Config{Kill: 1}), // every dispatch dies mid-response
			newWorker(t).URL,
			newWorker(t).URL,
		}
		coord := newCoordinator(t, fastDispatch(service.Config{Peers: peers}))
		for _, faultSel := range []string{"sa", "transition", "both"} {
			t.Run(name+"/"+faultSel, func(t *testing.T) {
				assertCoverageParity(t, coord, single, &service.CoverageRequest{
					CircuitText: text, Tests: tests, Faults: faultSel,
				})
			})
		}
		if n := metricValue(t, coord, "satpgd_shard_reassignments_total"); n == 0 {
			t.Errorf("%s: killed peer's shard was never re-assigned", name)
		}
	}
}

// TestCoordinatorPeerDownAtDispatch: a peer that refuses connections
// outright (dead before the query arrives) must not poison the merge.
func TestCoordinatorPeerDownAtDispatch(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 64, 8, 5)
	single := service.New(service.Config{})
	coord := newCoordinator(t, fastDispatch(service.Config{
		Peers: []string{newWorker(t).URL, deadPeer(t), newWorker(t).URL},
	}))
	assertCoverageParity(t, coord, single, &service.CoverageRequest{CircuitText: text, Tests: tests})
	if n := metricValue(t, coord, "satpgd_shard_retries_total"); n == 0 {
		t.Error("dead peer's shard succeeded without a retry")
	}
}

// TestCoordinatorSlowPeer: a peer stalled past the per-attempt
// deadline must be timed out and its shard re-assigned, not allowed to
// stall the whole query.
func TestCoordinatorSlowPeer(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 64, 8, 7)
	single := service.New(service.Config{})
	coord := newCoordinator(t, fastDispatch(service.Config{
		Peers: []string{
			chaosWorker(t, chaos.Config{Stall: 1, StallFor: 30 * time.Second}),
			newWorker(t).URL,
		},
		ShardTimeout: 300 * time.Millisecond,
	}))
	start := time.Now()
	assertCoverageParity(t, coord, single, &service.CoverageRequest{CircuitText: text, Tests: tests})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("slow peer stalled the query for %v despite the 300ms attempt deadline", elapsed)
	}
	if n := metricValue(t, coord, "satpgd_shard_retries_total"); n == 0 {
		t.Error("stalled shard completed without a retry")
	}
}

// TestCoordinatorMalformedPeerJSON: a peer answering 200 with a
// mangled body is a retryable failure, not a parse panic or a silent
// half-merge.
func TestCoordinatorMalformedPeerJSON(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 64, 8, 9)
	single := service.New(service.Config{})
	coord := newCoordinator(t, fastDispatch(service.Config{
		Peers: []string{
			chaosWorker(t, chaos.Config{Corrupt: 1}),
			newWorker(t).URL,
		},
	}))
	assertCoverageParity(t, coord, single, &service.CoverageRequest{CircuitText: text, Tests: tests})
}

// TestCoordinatorLocalFallback: with every peer dead the coordinator
// must degrade to executing the shards itself — same verdicts, plus
// the fallback counter recording that it happened.
func TestCoordinatorLocalFallback(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 64, 8, 11)
	single := service.New(service.Config{})
	coord := newCoordinator(t, fastDispatch(service.Config{
		Peers:         []string{deadPeer(t), deadPeer(t)},
		ShardAttempts: 1,
	}))
	assertCoverageParity(t, coord, single, &service.CoverageRequest{CircuitText: text, Tests: tests})
	if n := metricValue(t, coord, "satpgd_shard_local_fallbacks_total"); n != 2 {
		t.Fatalf("local fallbacks = %d, want 2 (both shards orphaned)", n)
	}
}

// TestCoordinatorNoLocalFallbackJoinsAllErrors: with the fallback
// disabled and every peer dead, the 502 must name every failing peer —
// not just the first — so the operator sees the whole outage at once.
func TestCoordinatorNoLocalFallbackJoinsAllErrors(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 16, 4, 13)
	dead1, dead2 := deadPeer(t), deadPeer(t)
	coord := newCoordinator(t, fastDispatch(service.Config{
		Peers:           []string{dead1, dead2},
		ShardAttempts:   1,
		NoLocalFallback: true,
	}))
	rec := postJSON(t, coord, "/v1/coverage", &service.CoverageRequest{CircuitText: text, Tests: tests})
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all peers dead, fallback off: status %d, want 502", rec.Code)
	}
	body := rec.Body.String()
	for _, peer := range []string{dead1, dead2} {
		if !strings.Contains(body, peer) {
			t.Errorf("502 body omits failing peer %s:\n%s", peer, body)
		}
	}
}

// TestCoordinatorMalformedRequestsKeepPeersHealthy: a bad request is
// the client's fault, never a worker's.  The coordinator must reject it
// with a 400 before fanning out, and a 4xx a worker itself returns must
// not count against that worker's health — otherwise a few malformed
// queries mark every peer down and push all later traffic onto the
// coordinator-local fallback.
func TestCoordinatorMalformedRequestsKeepPeersHealthy(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 16, 4, 17)
	coord := newCoordinator(t, fastDispatch(service.Config{
		Peers: []string{newWorker(t).URL, newWorker(t).URL},
	}))
	for _, req := range []*service.CoverageRequest{
		{CircuitText: text, Tests: tests, Lanes: 96},
		{CircuitText: text, Tests: tests, Lanes: 128},
		{CircuitText: text, Tests: tests, Model: "both"},
	} {
		if rec := postJSON(t, coord, "/v1/coverage", req); rec.Code != http.StatusBadRequest {
			t.Fatalf("malformed request %+v = %d %s; want 400", req, rec.Code, rec.Body.String())
		}
	}
	for _, ps := range coord.PeerStates() {
		if ps.State != service.PeerHealthy {
			t.Fatalf("peer %s is %s after malformed requests; want healthy", ps.URL, ps.State)
		}
	}
	decodeCoverage(t, postJSON(t, coord, "/v1/coverage", &service.CoverageRequest{CircuitText: text, Tests: tests}))
	if n := metricValue(t, coord, "satpgd_shard_local_fallbacks_total"); n != 0 {
		t.Fatalf("valid request after malformed ones ran %d shards locally; want 0", n)
	}

	// A worker that rejects what the coordinator accepted (a version
	// skew, say) fails the query, but it answered: it stays healthy.
	var hits atomic.Int64
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"unsupported request"}`, http.StatusUnprocessableEntity)
	}))
	t.Cleanup(rejecting.Close)
	coord = newCoordinator(t, fastDispatch(service.Config{Peers: []string{rejecting.URL}}))
	for i := 0; i < 3; i++ {
		rec := postJSON(t, coord, "/v1/coverage", &service.CoverageRequest{CircuitText: text, Tests: tests})
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("request %d against a rejecting worker = %d %s; want 502", i, rec.Code, rec.Body.String())
		}
	}
	if hits.Load() != 3 {
		t.Fatalf("rejecting worker saw %d dispatches, want 3 (a 4xx is not retried)", hits.Load())
	}
	if st := coord.PeerStates()[0].State; st != service.PeerHealthy {
		t.Fatalf("worker answering 4xx is %s; want healthy", st)
	}
}

// TestCoordinatorRejectsStreaming: the coordinator cannot stream a
// merged report batch-by-batch, and must say so instead of silently
// downgrading the request to a plain response.
func TestCoordinatorRejectsStreaming(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	tests := randomTests(c, 16, 4, 15)
	coord := newCoordinator(t, fastDispatch(service.Config{Peers: []string{newWorker(t).URL}}))
	rec := postJSON(t, coord, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests, Stream: true,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stream on coordinator: status %d, want 400", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "stream") {
		t.Fatalf("rejection does not explain itself: %s", body)
	}
	// The same request still streams fine when explicitly kept local.
	rec = postJSON(t, coord, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests, Stream: true, Local: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("local streaming on a coordinator: %d %s", rec.Code, rec.Body.String())
	}
}

// TestHealthProbesDriveStateMachine: the background prober alone (no
// queries) must walk a flapping peer healthy → down → healthy.
func TestHealthProbesDriveStateMachine(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "degraded", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(peer.Close)

	coord := newCoordinator(t, service.Config{
		Peers:         []string{peer.URL},
		ProbeInterval: 2 * time.Millisecond,
	})
	waitState := func(want service.PeerState) service.PeerStatus {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			st := coord.PeerStates()[0]
			if st.State == want {
				return st
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("peer never reached %v (stuck at %v)", want, coord.PeerStates()[0].State)
		return service.PeerStatus{}
	}

	st := waitState(service.PeerDown)
	if st.Probes == 0 || st.ProbeFails == 0 {
		t.Fatalf("down without probe evidence: %+v", st)
	}
	failing.Store(false)
	st = waitState(service.PeerHealthy)
	// healthy → suspect → down → recovering → healthy: four transitions.
	if st.Transitions < 4 {
		t.Fatalf("recovery took %d transitions, want the full walk (>= 4)", st.Transitions)
	}
}

// failingWriter is a ResponseWriter whose client has gone away: every
// body write fails.
type failingWriter struct {
	header http.Header
	code   int
}

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(c int)   { f.code = c }
func (f *failingWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("write on closed connection")
}

// TestEncodeFailureCounted: a response body that cannot be written is
// an encode failure, not a completed query — the work counters still
// move (the simulation ran), the success counter must not.
func TestEncodeFailureCounted(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	body, err := json.Marshal(&service.CoverageRequest{CircuitText: text, Tests: randomTests(c, 16, 4, 17)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/coverage", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	fw := &failingWriter{header: make(http.Header)}
	srv.ServeHTTP(fw, req)

	if n := metricValue(t, srv, "satpgd_encode_failures_total"); n != 1 {
		t.Fatalf("encode failures = %d, want 1", n)
	}
	if n := metricValue(t, srv, "satpgd_coverage_queries_total"); n != 0 {
		t.Fatalf("coverage queries = %d after a failed response write, want 0", n)
	}
	if n := metricValue(t, srv, "satpgd_patterns_simulated_total"); n == 0 {
		t.Fatal("patterns counter did not move — the simulation did run")
	}
}
