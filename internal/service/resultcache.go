package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// The result-store integration: finished coverage and compaction
// responses are cached under a key hashing every verdict-affecting
// dimension of the request, so a repeated audit of the same (circuit,
// test program, model) pair is an O(1) store read instead of a
// re-simulation — across process restarts, when the store is backed by
// a directory (`satpgd -store DIR`).
//
// Streaming stays out of the key: it changes how the answer arrives,
// never what it is.  The shard restriction is hashed even though the
// engine is parity-pinned across shards — a cache must never be the
// thing that papers over a parity bug.
//
// The keys keep constants in the slots that once hashed a selectable
// fault-simulation engine and lane width (64), so a store written
// before the event engine and the 64-lane width became the only ones
// still serves the requests that never named them (TestStoreKeysStable
// pins this).  The engine slot now names the semantics of the stored
// answers: storeSemantics.

// storeSemantics salts every store key with the semantics of the
// engines behind the stored answers.  Bump it whenever a change alters
// a stored verdict — a coverage verdict, or the programs compaction
// keeps — so that a store written before the change misses instead of
// serving stale answers; TestStoreSemanticsDigest trips on such a
// change.  A bump moves every key, so TestStoreKeysStable is re-pinned
// with it.  Its value is still "event", the engine name the slot once
// held, so stores written before the salt keep serving.
const storeSemantics = "event"

// canon substitutes a keyword's documented default for the empty
// string so "", "input" and explicit defaults share a key.
func canon(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// hashWords feeds one word slice into the key hash, framed by length
// and nil-ness (a nil Expected means "judge against the good machine",
// which is a different query than an empty declared response).
func hashWords(h io.Writer, ws []uint64) {
	var b [8]byte
	n := uint64(len(ws)) + 1
	if ws == nil {
		n = 0
	}
	binary.LittleEndian.PutUint64(b[:], n)
	h.Write(b[:])
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// coverageKey derives the result-store key of a coverage request.
func coverageKey(circuitID string, req *CoverageRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "coverage\x00%s\x00%s\x00%s\x00%s\x0064\x00%d\x00%d\x00",
		circuitID, canon(req.Model, "input"), canon(req.Faults, "sa"), storeSemantics,
		req.Shard, req.Shards)
	for _, t := range req.Tests {
		hashWords(h, t.Patterns)
		hashWords(h, t.Expected)
	}
	sum := h.Sum(nil)
	return "cov-" + hex.EncodeToString(sum[:16])
}

// compactKey derives the result-store key of a compaction request.
func compactKey(circuitID string, req *CompactRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "compact\x00%s\x00%s\x00%s\x00%s\x0064\x00%s\x00",
		circuitID, canon(req.Model, "input"), canon(req.Faults, "sa"), storeSemantics,
		canon(req.Mode, "all"))
	var b [8]byte
	for _, p := range req.Programs {
		hashWords(h, p.Patterns)
		hashWords(h, p.Expected)
		binary.LittleEndian.PutUint64(b[:], p.ResetExpected)
		h.Write(b[:])
	}
	sum := h.Sum(nil)
	return "cmp-" + hex.EncodeToString(sum[:16])
}

// storeGet probes the result store for key and decodes the stored
// body into out, counting the hit or miss.  A no-op without a store.
func (s *Server) storeGet(key string, out any) bool {
	if s.cfg.Store == nil || key == "" {
		return false
	}
	body, ok := s.cfg.Store.Get(key)
	if !ok {
		s.metrics.StoreMisses.Add(1)
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		// An undecodable record (schema drift across versions) is a
		// miss; the fresh run re-puts under the same key harmlessly.
		s.metrics.StoreMisses.Add(1)
		return false
	}
	s.metrics.StoreHits.Add(1)
	return true
}

// storePut records a finished response under key.  A no-op without a
// store; a failed append is deliberately swallowed — persistence is an
// optimisation, never a reason to fail a query that already computed.
func (s *Server) storePut(key string, resp any) {
	if s.cfg.Store == nil || key == "" {
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return
	}
	_ = s.cfg.Store.Put(key, body)
}
