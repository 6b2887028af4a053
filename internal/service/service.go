// Package service is the resident coverage server behind cmd/satpgd:
// an HTTP API that accepts circuits and test programs, measures
// guaranteed fault coverage with the shard-parallel fsim engine, and
// optionally compacts programs — while sharing the expensive state
// (parsed circuits, Topology indexes, good traces) across every
// request the process serves.
//
// # API
//
//	POST /v1/circuits   body: .ckt text → {"id", "name", "inputs", "outputs", "gates", "signals"}
//	POST /v1/coverage   body: CoverageRequest JSON → CoverageResponse JSON
//	                    (with "stream": true, NDJSON: one BatchProgress
//	                    line per simulated batch, then the final
//	                    CoverageResponse line; a coordinator rejects
//	                    streaming with 400 — per-batch progress does not
//	                    exist for a merged report — unless "local": true)
//	POST /v1/generate   body: GenerateRequest JSON → GenerateResponse JSON
//	                    (full ATPG: random walks and — CSSG flow —
//	                    three-phase targeting)
//	POST /v1/compact    body: CompactRequest JSON → CompactResponse JSON
//	GET  /metrics       plain-text counters (cache hit rates, query and
//	                    pattern totals, in-flight gauge)
//	GET  /healthz       liveness probe
//	GET  /debug/pprof/  the standard Go profiler endpoints
//
// Every measurement handler threads its request's context into the
// engines, so a client disconnect cancels the work at the next batch
// or decision boundary instead of burning the server's cores on an
// abandoned query.
//
// # Sharding model
//
// A request may restrict the measurement to shard i of an N-way
// partition of the representative fault classes ("shard"/"shards");
// the response then carries the ownership bitmask, and the shard
// responses of all N workers merge losslessly into the single-process
// report.  A server configured with peer URLs acts as the coordinator:
// it forwards the request to each peer with an assigned shard index
// (shipping the circuit text inline so workers need no shared state),
// collects the partial verdicts, and returns the merged report — the
// multi-process scale-out mode of the engine.
//
// # Fault tolerance
//
// The coordinator treats its workers as unreliable.  A background
// prober and the real dispatch outcomes feed a per-peer health state
// machine (healthy → suspect → down → recovering, see PeerState); down
// peers are skipped at shard assignment.  Each shard dispatch runs
// under a per-attempt deadline with jittered exponential backoff
// between attempts, re-assigning the shard to the next eligible peer
// on failure, and degrading to coordinator-local execution when no
// peer can serve it.  Because the shard partition is a pure function
// of (fault universe, shard count), the merged report stays
// bit-identical to a single-process measurement no matter which
// executor finally ran each shard.
//
// # Result store
//
// With Config.Store set (`satpgd -store DIR`), finished coverage and
// compaction responses persist under a key hashing every
// verdict-affecting request dimension; a repeated audit replays from
// the store (response carries "from_store": true) instead of
// re-simulating, surviving process restarts.
//
// # Input bounds
//
// Every POST body is capped at MaxRequestBytes (413 past it), and every
// request field is validated — circuit, model, faults, mode, flow, the
// lengths of declared responses, the shard index, and generation's
// walk count and length (each capped by a Max* constant) — before the
// result store is probed, any peer is contacted or any generation
// runs, so a malformed query is a 400 that costs neither a store miss
// nor a peer's health.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/resultstore"
	"repro/internal/tester"
)

// MaxRequestBytes caps every POST body.  The largest body the
// repository's own clients send — its tests, the service benchmarks
// and the audit benchmark workload, coordinator shard requests
// included — is the 29,101-byte s953 netlist, so the cap leaves over
// 500× headroom (room for a circuit at the MaxSignals ceiling with
// tens of thousands of test cycles) while bounding what one request
// can make the server buffer.
const MaxRequestBytes = 16 << 20

// Caps on POST /v1/generate's numeric fields.  The largest values the
// repository's own callers use — its tests, examples, CLI defaults and
// benchmark workloads — are 65,536 walks (a library cancellation test)
// and 48 vectors per walk; the caps sit 4× and 10.7× above them.  The
// field caps alone still admit 2^27 walk vectors (about 2 GiB of walks
// at 16 bytes a vector), so MaxRandomVectors also bounds their
// product: the largest product those callers use is the same
// cancellation test's 65,536 × 48 = 3,145,728 vectors, and the cap
// sits 5.3× above it (256 MiB of walks).  A zero field takes the library default (256 walks, 24
// vectors), whose product with the other field's cap stays under
// MaxRandomVectors.
const (
	MaxRandomSeqs    = 1 << 18 // random_seqs
	MaxRandomLen     = 1 << 9  // random_len
	MaxRandomVectors = 1 << 24 // random_seqs × random_len
)

// Config tunes a Server.
type Config struct {
	// CircuitCap bounds the circuit intern store (0: DefaultCircuitCap).
	CircuitCap int
	// Peers lists worker base URLs (e.g. "http://10.0.0.2:8714").  When
	// non-empty the server coordinates: unsharded coverage requests are
	// partitioned across the peers and the verdicts merged.
	Peers []string
	// Client performs the coordinator's peer requests.  Nil gets a
	// default client with a timeout (never http.DefaultClient, whose
	// missing timeout lets one hung worker stall a query forever).
	Client *http.Client
	// Store, when non-nil, caches finished coverage and compaction
	// responses keyed by every verdict-affecting request dimension, so
	// repeated audits replay in O(1) (`satpgd -store DIR`).
	Store *resultstore.Store
	// ProbeInterval paces the coordinator's background /healthz probes
	// of its peers (0: DefaultProbeInterval; negative disables probing
	// — dispatch outcomes still drive the per-peer state machines).
	ProbeInterval time.Duration
	// ShardTimeout bounds one shard dispatch attempt
	// (0: DefaultShardTimeout).
	ShardTimeout time.Duration
	// ShardAttempts is the per-shard dispatch budget across retries and
	// peer re-assignments (0: DefaultShardAttempts).
	ShardAttempts int
	// BackoffBase/BackoffMax shape the exponential jittered backoff
	// between a shard's dispatch attempts (0: DefaultBackoffBase/Max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// NoLocalFallback disables the coordinator's last resort of
	// executing an undeliverable shard in-process; the query then fails
	// with every peer's error joined.
	NoLocalFallback bool
}

// Metrics is the server's atomic counter set, rendered by /metrics.
type Metrics struct {
	CoverageQueries atomic.Int64 // completed /v1/coverage requests
	CompactQueries  atomic.Int64 // completed /v1/compact requests
	GenerateQueries atomic.Int64 // completed /v1/generate requests
	CircuitSubmits  atomic.Int64 // completed /v1/circuits requests
	Errors          atomic.Int64 // requests answered with a 4xx/5xx
	InFlight        atomic.Int64 // requests currently being served
	Patterns        atomic.Int64 // test patterns simulated, summed over lanes
	FaultsMeasured  atomic.Int64 // per-fault verdicts produced

	// EncodeFailures counts response bodies that failed to reach the
	// client (disconnect mid-encode).  Such requests are NOT booked in
	// the per-query success counters above.
	EncodeFailures atomic.Int64

	// Coordinator failover counters.
	ShardRetries        atomic.Int64 // shard dispatches beyond each first attempt
	ShardReassignments  atomic.Int64 // dispatches sent to a non-home peer
	ShardLocalFallbacks atomic.Int64 // orphaned shards executed in-process

	// Result-store outcome counters (only move when a store is
	// configured).
	StoreHits   atomic.Int64 // queries answered from the store
	StoreMisses atomic.Int64 // queries that had to simulate
}

// Server is the resident coverage service.  It is an http.Handler;
// every method is safe for concurrent use.  A coordinator Server
// (Config.Peers non-empty) runs a background health prober — call
// Close when done with it.
type Server struct {
	cfg      Config
	circuits *CircuitStore
	metrics  Metrics
	mux      *http.ServeMux
	start    time.Time

	peers     []*peerHealth // coordinator's per-worker health machines
	defClient *http.Client  // timeout-bounded default for peer traffic
	stopProbe chan struct{}
	probeDone chan struct{} // nil when no prober was started
	closeOnce sync.Once
}

// New builds a Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		circuits:  NewCircuitStore(cfg.CircuitCap),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		stopProbe: make(chan struct{}),
	}
	s.defClient = &http.Client{Timeout: s.shardTimeout() + 30*time.Second}
	for _, p := range cfg.Peers {
		s.peers = append(s.peers, &peerHealth{url: p})
	}
	if len(s.peers) > 0 && cfg.ProbeInterval >= 0 {
		interval := cfg.ProbeInterval
		if interval == 0 {
			interval = DefaultProbeInterval
		}
		s.probeDone = make(chan struct{})
		go s.probeLoop(interval)
	}
	s.mux.HandleFunc("POST /v1/circuits", s.handleCircuits)
	s.mux.HandleFunc("POST /v1/coverage", s.handleCoverage)
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Close stops the background health prober (a no-op on a worker).
// The Server remains usable as a handler afterwards; only the
// periodic probing stops.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stopProbe)
		if s.probeDone != nil {
			<-s.probeDone
		}
	})
}

// Metrics exposes the live counter set (reads must use the atomic
// accessors).
func (s *Server) Metrics() *Metrics { return &s.metrics }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// httpError answers with a JSON error body and counts it.
func (s *Server) httpError(w http.ResponseWriter, code int, err error) {
	s.metrics.Errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// bodyError answers a failed body read: 413 when the body ran past
// MaxRequestBytes, 400 otherwise.
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	s.httpError(w, http.StatusBadRequest, err)
}

// decodeJSON decodes the request body into v, answering the failure
// itself; it reports whether the handler may proceed.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.bodyError(w, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// writeJSON renders v as the response body and reports whether the
// full body reached the client.  The body is marshalled up front so a
// marshal failure can still produce a 500; a failed write means the
// client went away mid-body, counted in EncodeFailures — the caller
// must only book its per-query success counter when this returns true,
// so a disconnected client is not recorded as a served query.
func (s *Server) writeJSON(w http.ResponseWriter, v any) bool {
	body, err := json.Marshal(v)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.metrics.EncodeFailures.Add(1)
		return false
	}
	return true
}

// CircuitInfo is the POST /v1/circuits response.
type CircuitInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	Signals int    `json:"signals"`
}

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	text, err := io.ReadAll(r.Body)
	if err != nil {
		s.bodyError(w, err)
		return
	}
	id, c, err := s.circuits.Intern(string(text), "submitted")
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.writeJSON(w, CircuitInfo{
		ID: id, Name: c.Name,
		Inputs: c.NumInputs(), Outputs: len(c.Outputs),
		Gates: c.NumGates(), Signals: c.NumSignals(),
	}) {
		s.metrics.CircuitSubmits.Add(1)
	}
}

// TestJSON is one test sequence of a coverage request.  Expected is
// optional: when any test omits it, faults are judged against the good
// machine's own simulated response instead of declared expectations.
type TestJSON struct {
	Patterns []uint64 `json:"patterns"`
	Expected []uint64 `json:"expected,omitempty"`
}

// CoverageRequest is the POST /v1/coverage body.
type CoverageRequest struct {
	// Circuit names an interned circuit id; CircuitText supplies the
	// .ckt source inline (and interns it).  Exactly one is required.
	Circuit     string `json:"circuit,omitempty"`
	CircuitText string `json:"circuit_text,omitempty"`

	Model  string     `json:"model,omitempty"`  // input (default) | output
	Faults string     `json:"faults,omitempty"` // sa (default) | transition | both
	Tests  []TestJSON `json:"tests"`

	// Shard/Shards restrict the measurement to one shard of an N-way
	// class partition (both 0: full universe).  Local setting a
	// coordinator assigns to its peers; clients normally leave it unset.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`

	// Stream switches the response to NDJSON: one BatchProgress line
	// after each simulated batch, then the final CoverageResponse line.
	Stream bool `json:"stream,omitempty"`
	// Local forces single-process measurement even on a coordinator.
	Local bool `json:"local,omitempty"`
}

// VerdictJSON is one per-fault verdict on the wire.
type VerdictJSON struct {
	Detected bool `json:"detected"`
	Test     int  `json:"test"`  // detecting test index; -1 reset-only or undetected
	Cycle    int  `json:"cycle"` // first detecting cycle; -1 at reset
}

// BatchProgress is one NDJSON streaming line ("kind": "batch").
type BatchProgress struct {
	Kind       string `json:"kind"`
	Base       int    `json:"base"`       // first test index of the batch
	Detections int    `json:"detections"` // new detections this batch
	Detected   int    `json:"detected"`   // cumulative detections
	Total      int    `json:"total"`
}

// CoverageResponse is the final coverage verdict ("kind": "report").
type CoverageResponse struct {
	Kind      string        `json:"kind"`
	CircuitID string        `json:"circuit_id"`
	Total     int           `json:"total"`
	Detected  int           `json:"detected"`
	Coverage  float64       `json:"coverage"`
	Classes   int           `json:"classes"`
	Workers   int           `json:"workers"`
	Shard     int           `json:"shard,omitempty"`
	Shards    int           `json:"shards,omitempty"`
	Owned     []uint64      `json:"owned,omitempty"`      // bitmask words, fault i at bit i%64 of word i/64
	FromStore bool          `json:"from_store,omitempty"` // replayed from the result store, no simulation ran
	PerFault  []VerdictJSON `json:"per_fault"`
	Patterns  int64         `json:"patterns"`
	GateEvals int64         `json:"gate_evals"`
	CacheHits int64         `json:"cache_hits"`
	CacheMiss int64         `json:"cache_misses"`
	ElapsedNS int64         `json:"elapsed_ns"`
}

// resolveCircuit returns the request's circuit and its intern id.
func (s *Server) resolveCircuit(id, text string) (string, *netlist.Circuit, error) {
	switch {
	case id != "" && text != "":
		return "", nil, fmt.Errorf("use either circuit or circuit_text, not both")
	case text != "":
		return s.circuits.Intern(text, "submitted")
	case id != "":
		_, c, ok := s.circuits.Lookup(id)
		if !ok {
			return "", nil, fmt.Errorf("unknown circuit id %q (submit it via /v1/circuits first)", id)
		}
		return id, c, nil
	}
	return "", nil, fmt.Errorf("one of circuit or circuit_text is required")
}

// resolveFaults maps the request's model/faults keywords to the fault
// model and selection, with cmd/satpg's keyword vocabulary.
func resolveFaults(model, sel string) (faults.Type, faults.Selection, error) {
	fm := faults.InputSA
	switch model {
	case "", "input":
	case "output":
		fm = faults.OutputSA
	default:
		return 0, 0, fmt.Errorf("unknown model %q (want input or output)", model)
	}
	fs := faults.SelStuckAt
	if sel != "" {
		var ok bool
		if fs, ok = faults.ParseSelection(sel); !ok {
			return 0, 0, fmt.Errorf("unknown faults %q (want sa, transition or both)", sel)
		}
	}
	return fm, fs, nil
}

// checkCoverageShape rejects a declared response trace whose length
// differs from its test's pattern count (a test without one is judged
// against the good machine) and a shard index outside its partition.
func checkCoverageShape(req *CoverageRequest) error {
	for i, t := range req.Tests {
		if t.Expected != nil && len(t.Expected) != len(t.Patterns) {
			return fmt.Errorf("test %d: %d expected responses for %d patterns", i, len(t.Expected), len(t.Patterns))
		}
	}
	if req.Shards > 0 && (req.Shard < 0 || req.Shard >= req.Shards) {
		return fmt.Errorf("shard %d out of range for %d shards", req.Shard, req.Shards)
	}
	return nil
}

// resolveUniverse validates the request's model and faults fields and
// returns the fault universe they select.
func resolveUniverse(c *netlist.Circuit, model, sel string) ([]faults.Fault, error) {
	fm, fs, err := resolveFaults(model, sel)
	if err != nil {
		return nil, err
	}
	return faults.SelectUniverse(c, fm, fs), nil
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req CoverageRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	coordinating := len(s.cfg.Peers) > 0 && !req.Local && req.Shards == 0
	if coordinating && req.Stream {
		// Per-batch progress has no cross-shard meaning; silently
		// downgrading to a buffered response (the old behavior) left
		// clients waiting on flushes that never came.
		s.httpError(w, http.StatusBadRequest, fmt.Errorf(
			`streaming is not supported on a coordinator: set "stream": false, or "local": true to measure on the coordinator itself`))
		return
	}
	id, c, err := s.resolveCircuit(req.Circuit, req.CircuitText)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	universe, err := resolveUniverse(c, req.Model, req.Faults)
	if err == nil {
		err = checkCoverageShape(&req)
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}

	// Result store probe — shared by the local and coordinated paths.
	var storeKey string
	if s.cfg.Store != nil {
		storeKey = coverageKey(id, &req)
		var cached CoverageResponse
		if s.storeGet(storeKey, &cached) {
			cached.FromStore = true
			cached.CircuitID = id
			ok := false
			if req.Stream {
				// The whole verdict is already known: the stream is
				// just the final report line.
				w.Header().Set("Content-Type", "application/x-ndjson")
				ok = json.NewEncoder(w).Encode(&cached) == nil
				if !ok {
					s.metrics.EncodeFailures.Add(1)
				}
			} else {
				ok = s.writeJSON(w, &cached)
			}
			if ok {
				s.metrics.CoverageQueries.Add(1)
			}
			return
		}
	}

	if coordinating {
		s.coordinateCoverage(r.Context(), w, &req, id, c, universe, storeKey)
		return
	}

	tests := make([]atpg.Test, len(req.Tests))
	for i, t := range req.Tests {
		tests[i] = atpg.Test{Patterns: t.Patterns, Expected: t.Expected}
	}
	opts := atpg.CoverageOptions{Shard: req.Shard, Shards: req.Shards}

	var enc *json.Encoder
	var flush func()
	var streamErr error
	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc = json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		flush = func() {
			if flusher != nil {
				flusher.Flush()
			}
		}
		total := len(universe)
		opts.OnBatch = func(base, detections, cum int) {
			if streamErr != nil {
				return
			}
			if streamErr = enc.Encode(BatchProgress{Kind: "batch", Base: base, Detections: detections, Detected: cum, Total: total}); streamErr != nil {
				return
			}
			flush()
		}
	}

	rep, err := atpg.CoverageOfCtx(r.Context(), c, universe, tests, opts)
	if err != nil {
		// Streaming has already committed a 200; the decode failure on
		// the client is the best remaining signal there.  A cancelled
		// context lands here too: the client is gone, the error body is
		// written into the void, and the point — the engines stopped at
		// the next batch boundary — has already been made.
		s.httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// The simulation ran whatever happens to the response below, so the
	// work counters move unconditionally; the query counter only moves
	// once the client has the verdict.
	s.metrics.Patterns.Add(rep.Stats.Patterns)
	s.metrics.FaultsMeasured.Add(int64(rep.Total))
	resp := coverageResponse(id, rep)
	s.storePut(storeKey, resp)
	if enc != nil {
		if streamErr == nil {
			streamErr = enc.Encode(resp)
		}
		if streamErr != nil {
			s.metrics.EncodeFailures.Add(1)
			return
		}
		flush()
		s.metrics.CoverageQueries.Add(1)
		return
	}
	if s.writeJSON(w, resp) {
		s.metrics.CoverageQueries.Add(1)
	}
}

// coverageResponse converts a report to its wire form.
func coverageResponse(circuitID string, rep *atpg.CoverageReport) *CoverageResponse {
	resp := &CoverageResponse{
		Kind: "report", CircuitID: circuitID,
		Total: rep.Total, Detected: rep.Detected, Coverage: rep.Coverage(),
		Classes: rep.Classes, Workers: rep.Workers,
		Shard: rep.Shard, Shards: rep.Shards,
		PerFault:  make([]VerdictJSON, len(rep.PerFault)),
		Patterns:  rep.Stats.Patterns,
		GateEvals: rep.Stats.GateEvals,
		CacheHits: rep.Stats.CacheHits,
		CacheMiss: rep.Stats.CacheMisses,
		ElapsedNS: rep.Elapsed.Nanoseconds(),
	}
	for i, fc := range rep.PerFault {
		resp.PerFault[i] = VerdictJSON{Detected: fc.Detected, Test: fc.TestIndex, Cycle: fc.Cycle}
	}
	if rep.Owned != nil {
		resp.Owned = make([]uint64, (len(rep.Owned)+63)/64)
		for i, own := range rep.Owned {
			if own {
				resp.Owned[i/64] |= 1 << uint(i%64)
			}
		}
	}
	return resp
}

// coverageReport converts a wire response back to a report for
// merging; the universe supplies the Fault identities the wire omits.
func coverageReport(resp *CoverageResponse, universe []faults.Fault) (*atpg.CoverageReport, error) {
	if resp.Total != len(universe) {
		return nil, fmt.Errorf("shard universe mismatch: peer reports %d faults, coordinator has %d", resp.Total, len(universe))
	}
	if len(resp.PerFault) != resp.Total {
		return nil, fmt.Errorf("malformed shard response: %d verdicts for %d faults", len(resp.PerFault), resp.Total)
	}
	rep := &atpg.CoverageReport{
		Total: resp.Total, Detected: resp.Detected,
		Classes: resp.Classes, Workers: resp.Workers,
		Shard: resp.Shard, Shards: resp.Shards,
		PerFault: make([]atpg.FaultCoverage, resp.Total),
		Stats: fsim.Stats{
			Patterns: resp.Patterns, GateEvals: resp.GateEvals,
			CacheHits: resp.CacheHits, CacheMisses: resp.CacheMiss,
		},
		Elapsed: time.Duration(resp.ElapsedNS),
	}
	for i, v := range resp.PerFault {
		rep.PerFault[i] = atpg.FaultCoverage{
			Fault: universe[i], Detected: v.Detected, TestIndex: v.Test, Cycle: v.Cycle,
		}
	}
	rep.Owned = make([]bool, resp.Total)
	for i := range rep.Owned {
		w := i / 64
		rep.Owned[i] = w < len(resp.Owned) && resp.Owned[w]>>uint(i%64)&1 == 1
	}
	return rep, nil
}

// GenerateRequest is the POST /v1/generate body: run the full ATPG
// flow on a circuit and return the generated tests with per-phase
// attribution.  The decoder ignores unknown fields, so an old client's
// lanes, workers, skip_podem, podem_budget and podem_cycles are
// accepted and ignored.
type GenerateRequest struct {
	Circuit     string `json:"circuit,omitempty"`
	CircuitText string `json:"circuit_text,omitempty"`

	Model  string `json:"model,omitempty"`  // input (default) | output
	Faults string `json:"faults,omitempty"` // sa (default) | transition | both
	Flow   string `json:"flow,omitempty"`   // auto (default) | cssg | direct

	Seed       int64 `json:"seed,omitempty"`
	RandomSeqs int   `json:"random_seqs,omitempty"`
	RandomLen  int   `json:"random_len,omitempty"`
	SkipRandom bool  `json:"skip_random,omitempty"`
}

// GenerateResponse is the generation outcome.
type GenerateResponse struct {
	CircuitID  string         `json:"circuit_id"`
	Total      int            `json:"total"`
	Covered    int            `json:"covered"`
	Coverage   float64        `json:"coverage"`
	ByPhase    map[string]int `json:"by_phase"`
	Untestable int            `json:"untestable"`
	// Unobservable counts the untestable faults proved so structurally
	// (no primary output in the faulty gate's fanout cone), before any
	// search.
	Unobservable int        `json:"unobservable"`
	Aborted      int        `json:"aborted"`
	Fallback     int        `json:"fallback"` // exhaustive product-machine searches run
	Tests        []TestJSON `json:"tests"`
	ElapsedNS    int64      `json:"elapsed_ns"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	opts := atpg.Options{
		Seed:            req.Seed,
		RandomSequences: req.RandomSeqs, RandomLength: req.RandomLen, SkipRandom: req.SkipRandom,
	}
	err := checkGenerateCaps(&req)
	if err == nil {
		err = opts.Validate()
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	id, c, err := s.resolveCircuit(req.Circuit, req.CircuitText)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	fm, sel, err := resolveFaults(req.Model, req.Faults)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	useDirect := false
	switch req.Flow {
	case "", "auto":
		useDirect = c.NumSignals() > netlist.WordBits
	case "cssg":
		if c.NumSignals() > netlist.WordBits {
			s.httpError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("%s has %d signals, past the %d-signal ceiling of the cssg flow (use direct or auto)",
					c.Name, c.NumSignals(), netlist.WordBits))
			return
		}
	case "direct":
		useDirect = true
	default:
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("unknown flow %q (want auto, cssg or direct)", req.Flow))
		return
	}
	universe := faults.SelectUniverse(c, fm, sel)
	start := time.Now()
	var res *atpg.Result
	if useDirect {
		res, err = atpg.RunDirectCtx(r.Context(), c, fm, universe, opts)
	} else {
		var g *core.CSSG
		if g, err = core.Build(c, core.Options{}); err == nil {
			res, err = atpg.RunUniverseCtx(r.Context(), g, fm, universe, opts)
		}
	}
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.Patterns.Add(res.FaultSim.Patterns)
	s.metrics.FaultsMeasured.Add(int64(res.Total))
	resp := &GenerateResponse{
		CircuitID: id,
		Total:     res.Total, Covered: res.Covered, Coverage: res.Coverage(),
		ByPhase:    make(map[string]int, len(res.ByPhase)),
		Untestable: res.Untestable, Unobservable: res.Unobservable,
		Aborted: res.Aborted, Fallback: res.Fallback,
		Tests:     make([]TestJSON, len(res.Tests)),
		ElapsedNS: time.Since(start).Nanoseconds(),
	}
	for ph, n := range res.ByPhase {
		resp.ByPhase[ph.String()] = n
	}
	for i, t := range res.Tests {
		resp.Tests[i] = TestJSON{Patterns: t.Patterns, Expected: t.Expected}
	}
	if s.writeJSON(w, resp) {
		s.metrics.GenerateQueries.Add(1)
	}
}

// checkGenerateCaps rejects numeric generation fields, and the walk
// count × length product, past the service caps
// (atpg.Options.Validate rejects the negative ones).
func checkGenerateCaps(req *GenerateRequest) error {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"random_seqs", req.RandomSeqs, MaxRandomSeqs},
		{"random_len", req.RandomLen, MaxRandomLen},
	} {
		if f.v > f.max {
			return fmt.Errorf("%s %d exceeds the service cap %d", f.name, f.v, f.max)
		}
	}
	// Both factors are capped above, so the product cannot overflow.
	if n := req.RandomSeqs * req.RandomLen; n > MaxRandomVectors {
		return fmt.Errorf("random_seqs × random_len = %d exceeds the service cap %d", n, MaxRandomVectors)
	}
	return nil
}

// ProgramJSON is one tester program on the wire.
type ProgramJSON struct {
	Patterns      []uint64 `json:"patterns"`
	Expected      []uint64 `json:"expected"`
	ResetExpected uint64   `json:"reset_expected"`
}

// CompactRequest is the POST /v1/compact body.
type CompactRequest struct {
	Circuit     string        `json:"circuit,omitempty"`
	CircuitText string        `json:"circuit_text,omitempty"`
	Model       string        `json:"model,omitempty"`
	Faults      string        `json:"faults,omitempty"`
	Mode        string        `json:"mode,omitempty"` // none | reverse | dominance | greedy | all (default)
	Programs    []ProgramJSON `json:"programs"`
}

// CompactResponse is the compaction outcome.
type CompactResponse struct {
	CircuitID string        `json:"circuit_id"`
	Mode      string        `json:"mode"`
	Before    int           `json:"before"`
	After     int           `json:"after"`
	Kept      []int         `json:"kept"`
	Programs  []ProgramJSON `json:"programs"`
	Detected  int           `json:"detected"`             // fault classes the program covers (preserved exactly)
	FromStore bool          `json:"from_store,omitempty"` // replayed from the result store
	ElapsedNS int64         `json:"elapsed_ns"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	var req CompactRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	id, c, err := s.resolveCircuit(req.Circuit, req.CircuitText)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	universe, err := resolveUniverse(c, req.Model, req.Faults)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	mode := compact.ModeAll
	if req.Mode != "" {
		var ok bool
		if mode, ok = compact.ParseMode(req.Mode); !ok {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want none, reverse, dominance, greedy or all)", req.Mode))
			return
		}
	}
	for i, p := range req.Programs {
		if len(p.Expected) != len(p.Patterns) {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("program %d: %d expected responses for %d patterns", i, len(p.Expected), len(p.Patterns)))
			return
		}
	}
	var storeKey string
	if s.cfg.Store != nil {
		storeKey = compactKey(id, &req)
		var cached CompactResponse
		if s.storeGet(storeKey, &cached) {
			cached.FromStore = true
			cached.CircuitID = id
			if s.writeJSON(w, &cached) {
				s.metrics.CompactQueries.Add(1)
			}
			return
		}
	}
	progs := make([]tester.Program, len(req.Programs))
	for i, p := range req.Programs {
		progs[i] = tester.Program{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected}
	}
	start := time.Now()
	cr, err := compact.CompactCtx(r.Context(), c, progs, universe, mode, compact.Options{})
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.Patterns.Add(cr.Matrix.Stats.Patterns)
	resp := &CompactResponse{
		CircuitID: id, Mode: mode.String(),
		Before: cr.Before, After: cr.After,
		Kept:      append([]int(nil), cr.Kept...),
		Programs:  make([]ProgramJSON, len(cr.Programs)),
		Detected:  cr.Matrix.Detected,
		ElapsedNS: time.Since(start).Nanoseconds(),
	}
	sort.Ints(resp.Kept)
	for i, p := range cr.Programs {
		resp.Programs[i] = ProgramJSON{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected}
	}
	s.storePut(storeKey, resp)
	if s.writeJSON(w, resp) {
		s.metrics.CompactQueries.Add(1)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tc := fsim.TraceCacheStats()
	cs := s.circuits.Stats()
	fmt.Fprintf(w, "satpgd_uptime_seconds %.0f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "satpgd_inflight_requests %d\n", s.metrics.InFlight.Load())
	fmt.Fprintf(w, "satpgd_coverage_queries_total %d\n", s.metrics.CoverageQueries.Load())
	fmt.Fprintf(w, "satpgd_compact_queries_total %d\n", s.metrics.CompactQueries.Load())
	fmt.Fprintf(w, "satpgd_generate_queries_total %d\n", s.metrics.GenerateQueries.Load())
	fmt.Fprintf(w, "satpgd_circuit_submits_total %d\n", s.metrics.CircuitSubmits.Load())
	fmt.Fprintf(w, "satpgd_errors_total %d\n", s.metrics.Errors.Load())
	fmt.Fprintf(w, "satpgd_patterns_simulated_total %d\n", s.metrics.Patterns.Load())
	fmt.Fprintf(w, "satpgd_faults_measured_total %d\n", s.metrics.FaultsMeasured.Load())
	fmt.Fprintf(w, "satpgd_trace_cache_hits_total %d\n", tc.Hits)
	fmt.Fprintf(w, "satpgd_trace_cache_misses_total %d\n", tc.Misses)
	fmt.Fprintf(w, "satpgd_trace_cache_evictions_total %d\n", tc.Evictions)
	fmt.Fprintf(w, "satpgd_trace_cache_waits_total %d\n", tc.Waits)
	fmt.Fprintf(w, "satpgd_trace_cache_hit_rate %.4f\n", tc.HitRate())
	fmt.Fprintf(w, "satpgd_trace_cache_entries %d\n", tc.Entries)
	fmt.Fprintf(w, "satpgd_circuit_store_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "satpgd_circuit_store_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "satpgd_circuit_store_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "satpgd_topology_builds_total %d\n", netlist.TopologyBuilds())
	fmt.Fprintf(w, "satpgd_encode_failures_total %d\n", s.metrics.EncodeFailures.Load())
	fmt.Fprintf(w, "satpgd_shard_retries_total %d\n", s.metrics.ShardRetries.Load())
	fmt.Fprintf(w, "satpgd_shard_reassignments_total %d\n", s.metrics.ShardReassignments.Load())
	fmt.Fprintf(w, "satpgd_shard_local_fallbacks_total %d\n", s.metrics.ShardLocalFallbacks.Load())
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		fmt.Fprintf(w, "satpgd_result_store_hits_total %d\n", s.metrics.StoreHits.Load())
		fmt.Fprintf(w, "satpgd_result_store_misses_total %d\n", s.metrics.StoreMisses.Load())
		fmt.Fprintf(w, "satpgd_result_store_disk_hits_total %d\n", st.DiskHits)
		fmt.Fprintf(w, "satpgd_result_store_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(w, "satpgd_result_store_entries %d\n", st.Entries)
		fmt.Fprintf(w, "satpgd_result_store_indexed %d\n", st.Indexed)
	}
	for _, ps := range s.PeerStates() {
		fmt.Fprintf(w, "satpgd_peer_state_code{peer=%q} %d\n", ps.URL, ps.State)
		fmt.Fprintf(w, "satpgd_peer_probes_total{peer=%q} %d\n", ps.URL, ps.Probes)
		fmt.Fprintf(w, "satpgd_peer_probe_failures_total{peer=%q} %d\n", ps.URL, ps.ProbeFails)
		fmt.Fprintf(w, "satpgd_peer_state_transitions_total{peer=%q} %d\n", ps.URL, ps.Transitions)
	}
}
