package fsim

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// fakeKey builds a distinct cache key; the circuit pointer is the
// identity, so a fresh empty struct suffices.
func fakeKey(seqs [][]uint64) (traceKey, *netlist.Circuit) {
	c := &netlist.Circuit{}
	return traceKey{c: c, hash: hashSeqs(seqs)}, c
}

func resetCacheForTest(t *testing.T) {
	t.Helper()
	traceMu.Lock()
	savedEntries, savedCap := traceEntries, traceCap
	traceEntries, traceCap = nil, DefaultTraceCacheCap
	traceMu.Unlock()
	t.Cleanup(func() {
		traceMu.Lock()
		traceEntries, traceCap = savedEntries, savedCap
		traceMu.Unlock()
	})
}

func cacheDelta(t *testing.T) func() CacheStats {
	t.Helper()
	before := TraceCacheStats()
	return func() CacheStats {
		now := TraceCacheStats()
		return CacheStats{
			Hits:      now.Hits - before.Hits,
			Misses:    now.Misses - before.Misses,
			Evictions: now.Evictions - before.Evictions,
			Entries:   now.Entries,
			Cap:       now.Cap,
		}
	}
}

func TestTraceCacheLRUEviction(t *testing.T) {
	resetCacheForTest(t)
	SetTraceCacheCap(2)
	delta := cacheDelta(t)

	seqs := [][]uint64{{1, 2, 3}}
	k1, _ := fakeKey(seqs)
	k2, _ := fakeKey(seqs)
	k3, _ := fakeKey(seqs)
	t1, t2, t3 := &goodTrace{}, &goodTrace{}, &goodTrace{}

	storeTrace(k1, seqs, t1)
	storeTrace(k2, seqs, t2)
	// Refresh k1 so k2 becomes least recently used.
	if got := lookupTrace(k1, seqs); got != t1 {
		t.Fatalf("lookup k1 = %p, want t1", got)
	}
	storeTrace(k3, seqs, t3) // must evict k2, not k1

	if got := lookupTrace(k1, seqs); got != t1 {
		t.Fatalf("k1 evicted despite being most recently used (got %v)", got)
	}
	if got := lookupTrace(k2, seqs); got != nil {
		t.Fatalf("k2 should have been evicted as LRU, got %v", got)
	}
	if got := lookupTrace(k3, seqs); got != t3 {
		t.Fatalf("lookup k3 = %v, want t3", got)
	}

	d := delta()
	if d.Hits != 3 || d.Misses != 1 || d.Evictions != 1 {
		t.Fatalf("counters = %+v, want 3 hits, 1 miss, 1 eviction", d)
	}
	if d.Entries != 2 || d.Cap != 2 {
		t.Fatalf("entries/cap = %d/%d, want 2/2", d.Entries, d.Cap)
	}
}

func TestTraceCacheShrinkAndDisable(t *testing.T) {
	resetCacheForTest(t)
	SetTraceCacheCap(4)
	delta := cacheDelta(t)

	seqs := [][]uint64{{7}}
	keys := make([]traceKey, 4)
	trs := make([]*goodTrace, 4)
	for i := range keys {
		keys[i], _ = fakeKey(seqs)
		trs[i] = &goodTrace{}
		storeTrace(keys[i], seqs, trs[i])
	}
	SetTraceCacheCap(1) // evicts the three oldest
	d := delta()
	if d.Evictions != 3 || d.Entries != 1 {
		t.Fatalf("after shrink: %+v, want 3 evictions, 1 entry", d)
	}
	if got := lookupTrace(keys[3], seqs); got != trs[3] {
		t.Fatalf("newest entry lost on shrink: got %v", got)
	}
	for _, k := range keys[:3] {
		if got := lookupTrace(k, seqs); got != nil {
			t.Fatalf("old entry survived shrink: %v", got)
		}
	}

	SetTraceCacheCap(0) // disables caching
	kd, _ := fakeKey(seqs)
	storeTrace(kd, seqs, &goodTrace{})
	if got := lookupTrace(kd, seqs); got != nil {
		t.Fatalf("store succeeded with cap 0: %v", got)
	}
	if st := TraceCacheStats(); st.Entries != 0 {
		t.Fatalf("cap 0 left %d entries resident", st.Entries)
	}
}

func TestTraceCacheReplaceKeepsOneEntry(t *testing.T) {
	resetCacheForTest(t)
	seqs := [][]uint64{{9, 9}}
	k, _ := fakeKey(seqs)
	v2 := &goodTrace{}
	storeTrace(k, seqs, &goodTrace{})
	storeTrace(k, seqs, v2) // replace, not insert
	if st := TraceCacheStats(); st.Entries != 1 {
		t.Fatalf("replacement grew the cache to %d entries", st.Entries)
	}
	if got := lookupTrace(k, seqs); got != v2 {
		t.Fatalf("lookup = %v, want the replacing value", got)
	}
}

// TestTraceFlightSingleLeader drives the singleflight registry
// directly: one leader computes, every concurrent requester of the
// same (key, seqs) joins as a waiter, the Waits counter records each
// join, and the registry drains once the leader finishes.
func TestTraceFlightSingleLeader(t *testing.T) {
	resetCacheForTest(t)
	seqs := [][]uint64{{5, 6}}
	k, _ := fakeKey(seqs)

	before := TraceCacheStats().Waits
	fl, leader := beginTraceFlight(k, seqs, true, true)
	if !leader {
		t.Fatal("first requester must lead")
	}
	const followers = 8
	var wg sync.WaitGroup
	got := make([]*goodTrace, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, lead := beginTraceFlight(k, seqs, true, true)
			if lead {
				t.Error("follower promoted to leader while flight in progress")
				finishTraceFlight(f, nil)
				return
			}
			<-f.done
			got[i] = f.tr
		}(i)
	}
	// Followers register before the leader publishes: wait for them.
	for {
		if TraceCacheStats().Waits-before == followers {
			break
		}
		runtime.Gosched()
	}
	want := &goodTrace{}
	finishTraceFlight(fl, want)
	wg.Wait()
	for i, tr := range got {
		if tr != want {
			t.Fatalf("waiter %d read %v, want the leader's trace", i, tr)
		}
	}
	again, lead := beginTraceFlight(k, seqs, true, true)
	if !lead {
		t.Fatal("registry not drained: new requester joined a finished flight")
	}
	finishTraceFlight(again, nil)
}

// TestTraceFlightRequirementCovering: a flight is joined only when it
// computes at least what the requester needs — a reset-only flight
// must not absorb a requester needing per-cycle outputs, but a
// full-state flight covers everyone.
func TestTraceFlightRequirementCovering(t *testing.T) {
	resetCacheForTest(t)
	seqs := [][]uint64{{11}}
	k, _ := fakeKey(seqs)

	shallow, leader := beginTraceFlight(k, seqs, false, false)
	if !leader {
		t.Fatal("first flight must lead")
	}
	deep, lead := beginTraceFlight(k, seqs, true, false)
	if !lead {
		t.Fatal("cycle-needing requester joined a reset-only flight")
	}
	finishTraceFlight(shallow, nil)
	finishTraceFlight(deep, nil)

	rich, leader := beginTraceFlight(k, seqs, true, true)
	if !leader {
		t.Fatal("flight must lead after drain")
	}
	if f, lead := beginTraceFlight(k, seqs, false, false); lead {
		finishTraceFlight(f, nil)
		t.Fatal("reset-only requester refused a full-state flight that covers it")
	} else if f != rich {
		t.Fatal("joined a different flight")
	}
	finishTraceFlight(rich, nil)
}

// TestConcurrentSimulatorsShareOneTrace runs many Simulators over the
// same circuit and sequence set at once: every report must be
// bit-identical, and the good trace must not be settled once per
// Simulator — the shared cache plus singleflight bound the distinct
// computations well below the naive N.
func TestConcurrentSimulatorsShareOneTrace(t *testing.T) {
	resetCacheForTest(t)
	rng := rand.New(rand.NewSource(777))
	var c *netlist.Circuit
	for c == nil {
		if cand, ok := randckt.New(rng, randckt.Config{}); ok {
			c = cand
		}
	}
	universe := faults.OutputUniverse(c)
	seqs := randSeqs(rng, c.NumInputs(), 32, 8)

	const n = 8
	delta := cacheDelta(t)
	waitsBefore := TraceCacheStats().Waits
	var wg sync.WaitGroup
	results := make([][]Detection, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := New(c, universe, Options{Engine: EngineEvent})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.SimulateSequences(seqs, nil, nil, func(base int, br *BatchResult) {
				results[i] = append(results[i], br.Detections...)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("simulator %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("simulator %d found %d detections, simulator 0 found %d",
				i, len(results[i]), len(results[0]))
		}
		for j := range results[i] {
			if results[i][j] != results[0][j] {
				t.Fatalf("simulator %d detection %d = %+v, simulator 0 = %+v",
					i, j, results[i][j], results[0][j])
			}
		}
	}
	d := delta()
	if len(results[0]) == 0 {
		t.Fatal("no detections — the run proved nothing")
	}
	// A lookup that finds the trace still being computed counts as a
	// cache miss and as a singleflight wait, so the computations are
	// the misses that did not wait.
	waits := TraceCacheStats().Waits - waitsBefore
	if computed := d.Misses - waits; computed >= n {
		t.Errorf("%d trace computations across %d identical simulators — no sharing", computed, n)
	}
	if d.Hits+waits == 0 {
		t.Error("neither cache hits nor singleflight waits observed")
	}
}

// TestSimulatorCacheCounters checks the per-Simulator attribution: the
// first simulation of a sequence set misses, a second Simulator over
// the same set hits.
func TestSimulatorCacheCounters(t *testing.T) {
	resetCacheForTest(t)
	rng := rand.New(rand.NewSource(424242))
	var c *netlist.Circuit
	for c == nil {
		if cand, ok := randckt.New(rng, randckt.Config{}); ok {
			c = cand
		}
	}
	universe := faults.OutputUniverse(c)
	seqs := randSeqs(rng, c.NumInputs(), 16, 6)

	run := func() Stats {
		s, err := New(c, universe, Options{Engine: EngineEvent})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SimulateSequences(seqs, nil, nil, func(int, *BatchResult) {}); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	st1 := run()
	if st1.CacheMisses == 0 {
		t.Fatalf("first run reported no cache misses: %+v", st1)
	}
	if st1.Allocs == 0 {
		t.Fatalf("first run reported no allocations: %+v", st1)
	}
	st2 := run()
	if st2.CacheHits == 0 {
		t.Fatalf("second run over the same sequences reported no cache hits: %+v", st2)
	}
	if st2.Allocs >= st1.Allocs {
		t.Fatalf("cache hit did not reduce allocations: first %d, second %d", st1.Allocs, st2.Allocs)
	}
}
