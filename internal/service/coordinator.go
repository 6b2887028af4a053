package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// Default dispatch tuning, used when the Config leaves the knobs zero.
const (
	DefaultShardTimeout  = 2 * time.Minute
	DefaultShardAttempts = 3
	DefaultBackoffBase   = 100 * time.Millisecond
	DefaultBackoffMax    = 2 * time.Second
)

func (s *Server) shardTimeout() time.Duration {
	if s.cfg.ShardTimeout > 0 {
		return s.cfg.ShardTimeout
	}
	return DefaultShardTimeout
}

func (s *Server) shardAttempts() int {
	if s.cfg.ShardAttempts > 0 {
		return s.cfg.ShardAttempts
	}
	return DefaultShardAttempts
}

func (s *Server) backoffBase() time.Duration {
	if s.cfg.BackoffBase > 0 {
		return s.cfg.BackoffBase
	}
	return DefaultBackoffBase
}

func (s *Server) backoffMax() time.Duration {
	if s.cfg.BackoffMax > 0 {
		return s.cfg.BackoffMax
	}
	return DefaultBackoffMax
}

// peerClient returns the HTTP client for peer traffic: the configured
// one, or the server's default timeout-bounded client.  The default
// deliberately carries a timeout — http.DefaultClient has none, and a
// single hung worker must not be able to stall a coordinator query
// until the client disconnects.
func (s *Server) peerClient() *http.Client {
	if s.cfg.Client != nil {
		return s.cfg.Client
	}
	return s.defClient
}

// permanentError marks a shard dispatch failure retrying cannot fix:
// the peer rejected the request itself (4xx), so every peer would.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func isRetryable(err error) bool {
	var p *permanentError
	return !errors.As(err, &p)
}

// coordinateCoverage fans the request out to the configured peers, one
// shard each, and merges the verdicts.  The circuit ships inline so
// workers need no prior state.  Unlike a plain scatter-gather, each
// shard runs a dispatch loop: a deadline per attempt, exponential
// jittered backoff between attempts, re-assignment to the next
// eligible peer when one fails or is marked down, and — when no peer
// can serve it — local execution of the orphaned shard.  The shard
// partition is a pure function of (universe, shard count), so however
// a shard finally runs, the merged report stays bit-identical to a
// single-process measurement.
func (s *Server) coordinateCoverage(ctx context.Context, w http.ResponseWriter, req *CoverageRequest, id string, c *netlist.Circuit, universe []faults.Fault, storeKey string) {
	text, _, ok := s.circuits.Lookup(id)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("interned circuit %q evicted mid-request", id))
		return
	}
	n := len(s.cfg.Peers)
	reports := make([]*atpg.CoverageReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range s.cfg.Peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.runShard(ctx, i, n, req, text, c, universe)
		}(i)
	}
	wg.Wait()
	// Aggregate every shard's failure trail, not just the first: a
	// 502 that names one dead peer while three are dead sends the
	// operator restarting workers one 502 at a time.
	if err := errors.Join(errs...); err != nil {
		s.httpError(w, http.StatusBadGateway, err)
		return
	}
	merged, err := atpg.MergeShardReports(reports)
	if err != nil {
		s.httpError(w, http.StatusBadGateway, err)
		return
	}
	s.metrics.Patterns.Add(merged.Stats.Patterns)
	s.metrics.FaultsMeasured.Add(int64(merged.Total))
	resp := coverageResponse(id, merged)
	s.storePut(storeKey, resp)
	if s.writeJSON(w, resp) {
		s.metrics.CoverageQueries.Add(1)
	}
}

// runShard drives one shard to completion: up to shardAttempts
// dispatches across the eligible peers (the shard's home peer first),
// with jittered exponential backoff between attempts, then local
// execution as the last resort.  The returned error joins every
// attempt's failure.
func (s *Server) runShard(ctx context.Context, shard, shards int, req *CoverageRequest, text string, c *netlist.Circuit, universe []faults.Fault) (*atpg.CoverageReport, error) {
	var errs []error
	attempts := s.shardAttempts()
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			errs = append(errs, ctx.Err())
			break
		}
		peer := s.pickPeer(shard, attempt)
		if peer == nil {
			errs = append(errs, fmt.Errorf("shard %d/%d: every peer is down", shard, shards))
			break
		}
		if attempt > 0 {
			s.metrics.ShardRetries.Add(1)
			if !sleepBackoff(ctx, s.backoffBase(), s.backoffMax(), attempt) {
				errs = append(errs, ctx.Err())
				break
			}
		}
		if peer != s.peers[shard%len(s.peers)] {
			s.metrics.ShardReassignments.Add(1)
		}
		rep, err := s.dispatchShard(ctx, peer.url, shard, shards, req, text, universe)
		if err == nil {
			peer.reportSuccess()
			return rep, nil
		}
		errs = append(errs, fmt.Errorf("shard %d attempt %d via %s: %w", shard, attempt+1, peer.url, err))
		if !isRetryable(err) {
			// The request is at fault, not the peer (it answered 4xx,
			// or was never contacted): leave the peer's health alone.
			return nil, errors.Join(errs...)
		}
		peer.reportFailure()
	}
	if !s.cfg.NoLocalFallback && ctx.Err() == nil {
		rep, err := s.localShard(ctx, c, universe, req, shard, shards)
		if err == nil {
			s.metrics.ShardLocalFallbacks.Add(1)
			return rep, nil
		}
		errs = append(errs, fmt.Errorf("shard %d local fallback: %w", shard, err))
	}
	return nil, errors.Join(errs...)
}

// pickPeer chooses the attempt-th candidate peer for a shard: its home
// peer first, then the following peers round-robin, skipping any the
// health state machine marks down.  Returns nil when every peer is
// down.
func (s *Server) pickPeer(shard, attempt int) *peerHealth {
	n := len(s.peers)
	for k := 0; k < n; k++ {
		p := s.peers[(shard+attempt+k)%n]
		if p.eligible() {
			return p
		}
	}
	return nil
}

// sleepBackoff waits out the exponential backoff of retry `attempt`
// (1-based), jittered into [d/2, d) so synchronized shard retries
// spread out, aborting early when ctx is done.
func sleepBackoff(ctx context.Context, base, max time.Duration, attempt int) bool {
	d := base << uint(attempt-1)
	if d <= 0 || d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))/2
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// dispatchShard sends one shard request to one peer under the
// per-attempt deadline and converts the response back to a report.
// Transport failures, deadline expiries, 5xx and undecodable bodies
// are retryable; a 4xx is permanent (every peer would reject the same
// request).
func (s *Server) dispatchShard(ctx context.Context, peerURL string, shard, shards int, req *CoverageRequest, text string, universe []faults.Fault) (*atpg.CoverageReport, error) {
	sub := *req
	sub.Circuit, sub.CircuitText = "", text
	sub.Shard, sub.Shards = shard, shards
	sub.Stream, sub.Local = false, true
	body, err := json.Marshal(&sub)
	if err != nil {
		return nil, &permanentError{err}
	}
	actx, cancel := context.WithTimeout(ctx, s.shardTimeout())
	defer cancel()
	preq, err := http.NewRequestWithContext(actx, http.MethodPost, peerURL+"/v1/coverage", bytes.NewReader(body))
	if err != nil {
		return nil, &permanentError{err}
	}
	preq.Header.Set("Content-Type", "application/json")
	resp, err := s.peerClient().Do(preq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		serr := fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &permanentError{serr}
		}
		return nil, serr
	}
	var cr CoverageResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return coverageReport(&cr, universe)
}

// localShard degrades an orphaned shard to in-process execution.  The
// shard partition is deterministic given (universe, shard count), so
// the coordinator computing a shard itself yields exactly the verdicts
// the assigned worker would have.
func (s *Server) localShard(ctx context.Context, c *netlist.Circuit, universe []faults.Fault, req *CoverageRequest, shard, shards int) (*atpg.CoverageReport, error) {
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	tests := make([]atpg.Test, len(req.Tests))
	for i, t := range req.Tests {
		tests[i] = atpg.Test{Patterns: t.Patterns, Expected: t.Expected}
	}
	return atpg.CoverageOfCtx(ctx, c, universe, tests, atpg.CoverageOptions{
		Workers: workers,
		Shard:   shard, Shards: shards,
	})
}
