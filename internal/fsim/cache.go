package fsim

import (
	"sync"

	"repro/internal/netlist"
)

// Good-trace cache: the good machine's response trace over a batch is a
// pure function of (circuit, lane width, sequence set), and the same
// sequence set is routinely simulated several times — atpg.CoverageOfCtx
// then tester.MeasureCoverage on the same tests, repeated SimulateBatch
// calls while diagnosing, the differential sweeps.  The cache is shared
// across Simulator instances so those repeats skip the redundant good
// run; entries are verified by full content comparison (the hash only
// short-lists candidates), so a hit is always exact.
//
// The cache is a sized LRU: lookups refresh an entry's recency and
// inserts beyond the capacity evict the least recently used entry.
// The capacity is configurable (SetTraceCacheCap) because a resident
// service serving many circuits needs a bound proportional to memory,
// not the test suite's; hit/miss/eviction counters are exposed through
// TraceCacheStats for cache-wide observability and through
// Simulator.Stats for per-simulator attribution.
//
// Circuits are keyed by pointer identity: the packages in this module
// never mutate a Circuit in place (fault materialisation and DFT
// insertion clone), so a pointer uniquely names a circuit for the
// process lifetime.

// DefaultTraceCacheCap is the initial capacity of the shared
// good-trace cache, preserving the pre-sizing behavior.
const DefaultTraceCacheCap = 8

type traceKey struct {
	c     *netlist.Circuit
	width int
	hash  uint64
}

type traceEntry struct {
	key  traceKey
	seqs [][]uint64 // copied key material for exact equality
	tr   any        // *goodTrace[V] of the width's vector type
}

var (
	traceMu      sync.Mutex
	traceEntries []*traceEntry // LRU order: least recently used first
	traceCap     = DefaultTraceCacheCap
	traceFlights []*traceFlight // in-flight computations (singleflight)

	traceHits, traceMisses, traceEvictions, traceWaits int64
)

// CacheStats is a snapshot of the shared good-trace cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Waits counts singleflight joins: lookups that found the trace
	// being computed by another goroutine and waited for it instead of
	// recomputing.  Under concurrent identical queries this is the
	// work the singleflight saved.
	Waits        int64
	Entries, Cap int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (cs CacheStats) HitRate() float64 {
	if cs.Hits+cs.Misses == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(cs.Hits+cs.Misses)
}

// TraceCacheStats returns the cache-wide counters since process start.
func TraceCacheStats() CacheStats {
	traceMu.Lock()
	defer traceMu.Unlock()
	return CacheStats{
		Hits: traceHits, Misses: traceMisses, Evictions: traceEvictions,
		Waits:   traceWaits,
		Entries: len(traceEntries), Cap: traceCap,
	}
}

// SetTraceCacheCap resizes the shared good-trace cache to at most n
// entries, evicting least-recently-used entries if it shrinks; n <= 0
// disables caching entirely.  Affects every Simulator in the process.
func SetTraceCacheCap(n int) {
	traceMu.Lock()
	defer traceMu.Unlock()
	if n < 0 {
		n = 0
	}
	traceCap = n
	for len(traceEntries) > traceCap {
		evictOldest()
	}
}

// evictOldest drops the LRU entry; caller holds traceMu.
func evictOldest() {
	copy(traceEntries, traceEntries[1:])
	traceEntries[len(traceEntries)-1] = nil
	traceEntries = traceEntries[:len(traceEntries)-1]
	traceEvictions++
}

// hashSeqs is FNV-1a over the sequence set with length prefixes.
func hashSeqs(seqs [][]uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= v >> uint(8*b) & 0xff
			h *= prime
		}
	}
	mix(uint64(len(seqs)))
	for _, s := range seqs {
		mix(uint64(len(s)))
		for _, p := range s {
			mix(p)
		}
	}
	return h
}

func seqsEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// touch moves entry i to the most-recently-used position; caller holds
// traceMu.
func touch(i int) {
	e := traceEntries[i]
	copy(traceEntries[i:], traceEntries[i+1:])
	traceEntries[len(traceEntries)-1] = e
}

// lookupTrace returns the cached trace for the key, or nil, refreshing
// the entry's recency on a hit.
func lookupTrace(key traceKey, seqs [][]uint64) any {
	traceMu.Lock()
	defer traceMu.Unlock()
	for i, e := range traceEntries {
		if e.key == key && seqsEqual(e.seqs, seqs) {
			touch(i)
			traceHits++
			return e.tr
		}
	}
	traceMisses++
	return nil
}

// traceFlight is one in-flight trace computation.  Concurrent
// requesters of the same (key, seqs) whose requirements the flight
// covers wait on done instead of settling the good circuit again —
// the singleflight that lets N identical concurrent coverage queries
// pay for one good run.  A flight that computes less than a requester
// needs (cycles or full states) is not joined; the requester starts
// its own flight and the eventual storeTrace replace keeps the richer
// trace.
type traceFlight struct {
	key                    traceKey
	seqs                   [][]uint64
	needCycles, needStates bool
	done                   chan struct{}
	tr                     any // set before done closes; nil if the leader failed
}

// BeginTraceFlight registers intent to compute the trace for
// (key, seqs) at the given requirement level.  leader=true means the
// caller must compute, then call finishTraceFlight; leader=false means
// an in-flight computation covers the requirements — wait on fl.done
// and read fl.tr.
func beginTraceFlight(key traceKey, seqs [][]uint64, needCycles, needStates bool) (fl *traceFlight, leader bool) {
	traceMu.Lock()
	defer traceMu.Unlock()
	for _, f := range traceFlights {
		if f.key == key && seqsEqual(f.seqs, seqs) &&
			(f.needCycles || !needCycles) && (f.needStates || !needStates) {
			traceWaits++
			return f, false
		}
	}
	fl = &traceFlight{key: key, seqs: seqs, needCycles: needCycles, needStates: needStates, done: make(chan struct{})}
	traceFlights = append(traceFlights, fl)
	return fl, true
}

// finishTraceFlight publishes the leader's result (nil on failure) and
// releases the waiters.  The trace itself is published via storeTrace;
// fl.tr additionally hands it to waiters directly, so they are served
// even when the cache capacity is 0 or the entry was evicted at once.
func finishTraceFlight(fl *traceFlight, tr any) {
	traceMu.Lock()
	for i, f := range traceFlights {
		if f == fl {
			traceFlights = append(traceFlights[:i], traceFlights[i+1:]...)
			break
		}
	}
	fl.tr = tr
	traceMu.Unlock()
	close(fl.done)
}

// storeTrace inserts or replaces the trace for the key, evicting the
// least recently used entry beyond the capacity.
func storeTrace(key traceKey, seqs [][]uint64, tr any) {
	traceMu.Lock()
	defer traceMu.Unlock()
	for i, e := range traceEntries {
		if e.key == key && seqsEqual(e.seqs, seqs) {
			e.tr = tr // replace: a later batch extended the trace
			touch(i)
			return
		}
	}
	if traceCap <= 0 {
		return
	}
	cp := make([][]uint64, len(seqs))
	for i, s := range seqs {
		cp[i] = append([]uint64(nil), s...)
	}
	traceEntries = append(traceEntries, &traceEntry{key: key, seqs: cp, tr: tr})
	for len(traceEntries) > traceCap {
		evictOldest()
	}
}
