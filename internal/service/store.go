package service

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/netlist"
)

// DefaultCircuitCap is the default capacity of a Server's circuit
// store.
const DefaultCircuitCap = 64

// CircuitStore interns parsed circuits by content hash so every
// request naming the same circuit text shares one canonical
// *netlist.Circuit pointer.  The pointer identity is load-bearing: the
// Topology index (cones, observable signals) is built once per
// Circuit, so interning is what lets concurrent requests over the same
// circuit share one index instead of re-deriving it per request.
//
// The store is a sized LRU (lookups refresh recency, inserts beyond
// the capacity evict the least recently used circuit) with hit/miss
// counters exposed through Stats for the /metrics endpoint.
type CircuitStore struct {
	mu      sync.Mutex
	cap     int
	entries []*circuitEntry // LRU order: least recently used first

	hits, misses, evictions int64
}

type circuitEntry struct {
	id   string
	text string // the source .ckt text, kept for coordinator forwarding
	c    *netlist.Circuit
}

// NewCircuitStore builds a store holding at most cap circuits
// (cap <= 0: DefaultCircuitCap).
func NewCircuitStore(cap int) *CircuitStore {
	if cap <= 0 {
		cap = DefaultCircuitCap
	}
	return &CircuitStore{cap: cap}
}

// CircuitID is the content hash naming a circuit text in the store —
// the id POST /v1/circuits returns and /v1/coverage accepts.
func CircuitID(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// Intern parses the circuit text (unless an identical text is already
// interned) and returns its id and the canonical parsed circuit.
// Every caller presenting the same text gets the same pointer for as
// long as the entry stays resident.
func (st *CircuitStore) Intern(text, name string) (string, *netlist.Circuit, error) {
	id := CircuitID(text)
	st.mu.Lock()
	for i, e := range st.entries {
		if e.id == id && e.text == text {
			st.touch(i)
			st.hits++
			c := e.c
			st.mu.Unlock()
			return id, c, nil
		}
	}
	st.misses++
	st.mu.Unlock()

	// Parse outside the lock: circuit texts can be large and parsing
	// must not serialise unrelated requests.
	c, err := netlist.ParseString(text, name)
	if err != nil {
		return "", nil, err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	// A concurrent Intern of the same text may have won the race while
	// we parsed; keep its pointer canonical.
	for i, e := range st.entries {
		if e.id == id && e.text == text {
			st.touch(i)
			return id, e.c, nil
		}
	}
	st.entries = append(st.entries, &circuitEntry{id: id, text: text, c: c})
	for len(st.entries) > st.cap {
		copy(st.entries, st.entries[1:])
		st.entries[len(st.entries)-1] = nil
		st.entries = st.entries[:len(st.entries)-1]
		st.evictions++
	}
	return id, c, nil
}

// Lookup resolves an interned circuit id, refreshing its recency.
func (st *CircuitStore) Lookup(id string) (text string, c *netlist.Circuit, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, e := range st.entries {
		if e.id == id {
			st.touch(i)
			st.hits++
			return e.text, e.c, true
		}
	}
	st.misses++
	return "", nil, false
}

// touch moves entry i to the most-recently-used position; caller holds
// st.mu.
func (st *CircuitStore) touch(i int) {
	e := st.entries[i]
	copy(st.entries[i:], st.entries[i+1:])
	st.entries[len(st.entries)-1] = e
}

// StoreStats is a snapshot of the circuit store's counters.
type StoreStats struct {
	Hits, Misses, Evictions int64
	Entries, Cap            int
}

// Stats returns the store counters since construction.
func (st *CircuitStore) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		Hits: st.hits, Misses: st.misses, Evictions: st.evictions,
		Entries: len(st.entries), Cap: st.cap,
	}
}
