// Command satpgd is the resident coverage server: it keeps parsed
// circuits and their topology indexes warm across requests and serves
// concurrent coverage and compaction queries over HTTP (see
// internal/service for the API).
//
// Usage:
//
//	satpgd -addr :8714
//	satpgd -addr :8714 -circuit-cache 128
//	satpgd -addr :8700 -peers http://127.0.0.1:8714,http://127.0.0.1:8715
//	satpgd -addr :8714 -store /var/lib/satpgd
//
// The third form starts a coordinator: unsharded coverage requests are
// partitioned across the peer workers (one fault-class shard each) and
// the verdicts merged, bit-identical to a single-process run.  The
// coordinator health-probes its workers, retries and re-assigns failed
// shards with backoff, and degrades to local execution when no peer is
// healthy.  The fourth form persists finished coverage and compaction
// responses so repeated audits replay from the store, across restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/resultstore"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8714", "listen address (host:port)")
		peersFlag  = flag.String("peers", "", "comma-separated worker base URLs; enables coordinator mode")
		circuitCap = flag.Int("circuit-cache", 0, "interned circuit capacity (0: default)")
		storeDir   = flag.String("store", "", "result-store directory; persists finished responses across restarts")
		storeCap   = flag.Int("store-cache", 0, "result-store in-memory LRU capacity in entries (0: default)")
		probeEvery = flag.Duration("probe-interval", 0, "peer health-probe period (0: default; negative disables)")
		shardTO    = flag.Duration("shard-timeout", 0, "deadline per shard dispatch attempt (0: default)")
		shardTries = flag.Int("shard-attempts", 0, "dispatch attempts per shard before local fallback (0: default)")
	)
	flag.Parse()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		fatal(err)
	}
	if err := validateCaps(*circuitCap); err != nil {
		fatal(err)
	}
	if err := validateDispatch(*storeCap, *shardTO, *shardTries); err != nil {
		fatal(err)
	}

	var store *resultstore.Store
	if *storeDir != "" || *storeCap > 0 {
		store, err = resultstore.Open(*storeDir, *storeCap)
		if err != nil {
			fatal(fmt.Errorf("opening result store: %w", err))
		}
		defer store.Close()
	}

	srv := service.New(service.Config{
		CircuitCap:    *circuitCap,
		Peers:         peers,
		Store:         store,
		ProbeInterval: *probeEvery,
		ShardTimeout:  *shardTO,
		ShardAttempts: *shardTries,
	})
	defer srv.Close()
	hs := newHTTPServer(*addr, srv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if len(peers) > 0 {
		fmt.Printf("satpgd coordinating %d workers on %s\n", len(peers), *addr)
	} else {
		fmt.Printf("satpgd serving on %s\n", *addr)
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight queries finish.
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fatal(err)
		}
		fmt.Println("satpgd drained and stopped")
	}
}

// newHTTPServer wraps the service in the listener's timeouts.  Bodies
// are capped by the service (service.MaxRequestBytes); the header
// timeout stops a client that never finishes its headers from holding a
// connection open, and the idle timeout closes keep-alive connections
// no request has used for two minutes.  No whole-request or write
// timeout: coverage queries and NDJSON streams legitimately run for
// minutes.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// parsePeers splits and validates the -peers list: every entry must be
// an absolute http(s) URL, so a bare host:port typo fails at startup
// instead of as a confusing per-request dial error.
func parsePeers(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/"))
		if p == "" {
			continue
		}
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("invalid -peers entry %q (want http://host:port or https://host:port)", p)
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// validateCaps rejects nonsensical sizing flags up front.
func validateCaps(circuitCap int) error {
	if circuitCap < 0 {
		return fmt.Errorf("invalid -circuit-cache %d (want a positive entry count, or 0 for the default)", circuitCap)
	}
	return nil
}

// validateDispatch rejects nonsensical fault-tolerance flags up front.
// (-probe-interval is exempt: negative deliberately disables probing.)
func validateDispatch(storeCap int, shardTO time.Duration, shardTries int) error {
	if storeCap < 0 {
		return fmt.Errorf("invalid -store-cache %d (want a positive entry count, or 0 for the default)", storeCap)
	}
	if shardTO < 0 {
		return fmt.Errorf("invalid -shard-timeout %v (want a positive duration, or 0 for the default)", shardTO)
	}
	if shardTries < 0 {
		return fmt.Errorf("invalid -shard-attempts %d (want a positive count, or 0 for the default)", shardTries)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satpgd:", err)
	os.Exit(1)
}
