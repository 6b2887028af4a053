package service

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// White-box checks of the failover plumbing: the default peer client,
// the per-peer health state machine, and the backoff shape.

// TestDefaultPeerClientHasTimeout: with no Config.Client the
// coordinator must NOT fall back to http.DefaultClient (whose missing
// timeout lets one hung worker stall a query forever).
func TestDefaultPeerClientHasTimeout(t *testing.T) {
	s := New(Config{Peers: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	defer s.Close()
	c := s.peerClient()
	if c == http.DefaultClient {
		t.Fatal("nil Config.Client fell back to http.DefaultClient")
	}
	if c.Timeout <= 0 {
		t.Fatalf("default peer client timeout = %v, want > 0", c.Timeout)
	}
	if c.Timeout <= s.shardTimeout() {
		t.Fatalf("client timeout %v undercuts the per-attempt deadline %v", c.Timeout, s.shardTimeout())
	}
}

// TestConfiguredClientRespected: an explicit Config.Client wins.
func TestConfiguredClientRespected(t *testing.T) {
	custom := &http.Client{Timeout: time.Second}
	s := New(Config{Peers: []string{"http://127.0.0.1:1"}, Client: custom, ProbeInterval: -1})
	defer s.Close()
	if s.peerClient() != custom {
		t.Fatal("configured client was not used for peer traffic")
	}
}

// TestPeerStateMachine walks every documented transition.
func TestPeerStateMachine(t *testing.T) {
	p := &peerHealth{url: "http://w"}
	expect := func(want PeerState, step string) {
		t.Helper()
		if got := p.State(); got != want {
			t.Fatalf("%s: state = %v, want %v", step, got, want)
		}
	}
	expect(PeerHealthy, "initial")

	p.reportFailure()
	expect(PeerSuspect, "one failure")
	p.reportSuccess()
	expect(PeerHealthy, "suspect redeemed")

	for i := 0; i < downAfter; i++ {
		p.reportFailure()
	}
	expect(PeerDown, "consecutive failures")
	if p.eligible() {
		t.Fatal("down peer still eligible for shards")
	}

	p.reportSuccess()
	expect(PeerRecovering, "first success while down")
	p.reportFailure()
	expect(PeerDown, "relapse mid-recovery")

	p.reportSuccess()
	expect(PeerRecovering, "recovering again")
	for i := 1; i < healthyAfter; i++ {
		p.reportSuccess()
	}
	expect(PeerHealthy, "recovery complete")
	if !p.eligible() {
		t.Fatal("healthy peer not eligible")
	}
}

// TestPickPeerSkipsDown: shard assignment must walk past down peers
// and give up (nil) only when every peer is down.
func TestPickPeerSkipsDown(t *testing.T) {
	s := New(Config{
		Peers:         []string{"http://a", "http://b", "http://c"},
		ProbeInterval: -1,
	})
	defer s.Close()
	for i := 0; i < downAfter+1; i++ {
		s.peers[1].reportFailure()
	}
	if got := s.pickPeer(1, 0); got != s.peers[2] {
		t.Fatalf("shard 1 routed to %v, want the next healthy peer", got)
	}
	if got := s.pickPeer(0, 0); got != s.peers[0] {
		t.Fatal("healthy home peer was skipped")
	}
	for _, p := range s.peers {
		for i := 0; i < downAfter+1; i++ {
			p.reportFailure()
		}
	}
	if got := s.pickPeer(0, 0); got != nil {
		t.Fatalf("all peers down, pickPeer = %v, want nil", got)
	}
}

// TestSleepBackoff: the wait grows with the attempt, stays within
// [base/2, max), and aborts on context cancellation.
func TestSleepBackoff(t *testing.T) {
	base, max := 10*time.Millisecond, 40*time.Millisecond
	for attempt := 1; attempt <= 4; attempt++ {
		start := time.Now()
		if !sleepBackoff(context.Background(), base, max, attempt) {
			t.Fatalf("attempt %d: backoff aborted without cancellation", attempt)
		}
		d := time.Since(start)
		if d < base/2 {
			t.Fatalf("attempt %d: slept %v, under the %v floor", attempt, d, base/2)
		}
		if d > max+20*time.Millisecond {
			t.Fatalf("attempt %d: slept %v, over the %v cap", attempt, d, max)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if sleepBackoff(ctx, time.Minute, time.Minute, 1) {
		t.Fatal("cancelled backoff reported completion")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled backoff still slept")
	}
}

// TestStoreKeysStable pins the result-store keys of a default coverage
// request and a default compaction request to the values earlier
// builds computed, so a store directory they wrote keeps serving those
// requests as hits.  A key change must be deliberate: it orphans every
// stored result.
func TestStoreKeysStable(t *testing.T) {
	id := CircuitID("circuit demo\ninput A B\noutput y\ngate na NOT A\ngate c C na B\ngate y OR c B\ninit A=0 B=0 na=1 c=1 y=1\n")
	cov := &CoverageRequest{Circuit: id, Tests: []TestJSON{
		{Patterns: []uint64{1, 3, 2}, Expected: []uint64{0, 1, 1}},
		{Patterns: []uint64{2}},
	}}
	cmp := &CompactRequest{Circuit: id, Programs: []ProgramJSON{
		{Patterns: []uint64{1, 3}, Expected: []uint64{0, 1}, ResetExpected: 1},
		{Patterns: []uint64{2}, Expected: []uint64{1}},
	}}
	if got, want := coverageKey(id, cov), "cov-9a90dcd1ba502ad1554afd7a35e32d5a"; got != want {
		t.Errorf("coverage key = %s, want %s", got, want)
	}
	if got, want := compactKey(id, cmp), "cmp-cb8ed1e2c20b3abd5be4cb1e11859a54"; got != want {
		t.Errorf("compaction key = %s, want %s", got, want)
	}
}
