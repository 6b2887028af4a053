// Package resultstore is the persistent result store behind satpgd's
// repeated-audit fast path: a keyed cache of finished query results
// (per-fault coverage verdicts, compaction outcomes) that survives
// process restarts, so auditing the same (circuit, test program,
// model) pair twice is an O(1) replay instead of a re-simulation.
//
// Keys are opaque strings the caller derives from everything
// verdict-affecting about a query — circuit content hash, fault model
// and selection, engine, lane width, shard assignment, and a hash of
// the full test program.  Values are opaque byte blobs (in practice
// the JSON response body the service would have computed).
//
// # Storage model
//
// The store is an in-memory LRU in front of an append-only on-disk
// log.  Every Put appends one NDJSON line — `{"key":"…","body":…}` —
// to results.ndjson in the store directory; an in-memory index maps
// each key to its byte span in the file.  A Get that misses the LRU
// but hits the index reads the one line back and promotes it, so the
// LRU bounds decoded-bytes memory while the disk retains every result
// ever computed.  Opening a directory replays the log into the index
// (a key's first line wins, the record Put keeps canonical, so nothing
// appended later can change a stored result), tolerating a torn final
// line from a crashed writer.  A store opened with an empty directory
// path is memory-only: same LRU semantics, nothing persisted.
package resultstore

import (
	"bufio"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DefaultLRUCap is the in-memory entry cap used when Open is given a
// non-positive one.
const DefaultLRUCap = 256

const logName = "results.ndjson"

// logLine is the on-disk record: one JSON object per line.
type logLine struct {
	Key  string          `json:"key"`
	Body json.RawMessage `json:"body"`
}

type span struct {
	off    int64
	length int64
}

type memEntry struct {
	key  string
	body []byte
}

// Store is the keyed result store.  All methods are safe for
// concurrent use.
type Store struct {
	mu    sync.Mutex
	path  string   // log file path; "" when memory-only
	f     *os.File // append handle (nil when memory-only)
	size  int64    // current log length, the offset of the next append
	index map[string]span

	cap   int
	lru   *list.List // front = most recently used; values are *memEntry
	byKey map[string]*list.Element

	hits, misses, diskHits, puts, evictions int64
}

// Open builds a store persisting to dir (created if missing), holding
// at most lruCap decoded entries in memory (<= 0: DefaultLRUCap).  An
// empty dir gives a memory-only store.  Existing log contents are
// replayed into the index so earlier sessions' results are hits.
func Open(dir string, lruCap int) (*Store, error) {
	if lruCap <= 0 {
		lruCap = DefaultLRUCap
	}
	s := &Store{
		index: make(map[string]span),
		cap:   lruCap,
		lru:   list.New(),
		byKey: make(map[string]*list.Element),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.path = filepath.Join(dir, logName)
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.f = f
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log, indexing the first well-formed line of each
// key.  A torn or corrupt line (a crash mid-append) is skipped — the
// offsets of the following lines stay correct because lines are
// newline-framed, and a torn *final* line without its newline simply
// ends the scan; the next append position is pinned past the last byte
// so a new record never splices into the torn tail.
func (s *Store) replay() error {
	if _, err := s.f.Seek(0, 0); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	r := bufio.NewReaderSize(s.f, 1<<16)
	var off int64
	terminated := true
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			terminated = line[len(line)-1] == '\n'
			var rec logLine
			if jerr := json.Unmarshal(line, &rec); jerr == nil && rec.Key != "" {
				if _, dup := s.index[rec.Key]; !dup {
					s.index[rec.Key] = span{off: off, length: int64(len(line))}
				}
			}
			off += int64(len(line))
		}
		if err != nil {
			break
		}
	}
	s.size = off
	if !terminated {
		// Terminate the torn tail so the next append starts a fresh
		// line instead of splicing into the fragment.
		if _, err := s.f.WriteAt([]byte("\n"), s.size); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		s.size++
	}
	return nil
}

// Get returns the stored body for key.  LRU hits return immediately;
// index hits read the record back from the log and promote it.  The
// returned slice is shared — callers must not mutate it.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		return el.Value.(*memEntry).body, true
	}
	sp, ok := s.index[key]
	if !ok || s.f == nil {
		s.misses++
		return nil, false
	}
	buf := make([]byte, sp.length)
	if _, err := s.f.ReadAt(buf, sp.off); err != nil {
		s.misses++
		return nil, false
	}
	var rec logLine
	if err := json.Unmarshal(buf, &rec); err != nil || rec.Key != key {
		s.misses++
		return nil, false
	}
	s.hits++
	s.diskHits++
	s.insertLocked(key, []byte(rec.Body))
	return []byte(rec.Body), true
}

// Put stores body under key, appending it to the log.  Re-putting an
// existing key refreshes the LRU but appends nothing — results are
// deterministic given their key, so the first record stays canonical.
func (s *Store) Put(key string, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		return nil
	}
	if _, ok := s.index[key]; !ok && s.f != nil {
		line, err := json.Marshal(logLine{Key: key, Body: json.RawMessage(body)})
		if err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		line = append(line, '\n')
		if _, err := s.f.WriteAt(line, s.size); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		s.index[key] = span{off: s.size, length: int64(len(line))}
		s.size += int64(len(line))
	}
	s.puts++
	s.insertLocked(key, body)
	return nil
}

// insertLocked adds an entry at the MRU position, evicting beyond the
// cap.  Eviction only drops the decoded copy — the log keeps the
// record, so an evicted key still hits via the index.
func (s *Store) insertLocked(key string, body []byte) {
	s.byKey[key] = s.lru.PushFront(&memEntry{key: key, body: body})
	for s.lru.Len() > s.cap {
		el := s.lru.Back()
		s.lru.Remove(el)
		delete(s.byKey, el.Value.(*memEntry).key)
		s.evictions++
	}
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits      int64 // Gets answered (LRU or disk)
	Misses    int64 // Gets answered with nothing
	DiskHits  int64 // subset of Hits served by reading the log
	Puts      int64 // new records stored
	Evictions int64 // decoded entries dropped by the LRU cap
	Entries   int   // decoded entries resident
	Indexed   int   // records reachable on disk (0 when memory-only)
	Cap       int
}

// Stats returns the counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, DiskHits: s.diskHits,
		Puts: s.puts, Evictions: s.evictions,
		Entries: s.lru.Len(), Indexed: len(s.index), Cap: s.cap,
	}
}

// Close releases the log handle.  A memory-only store's Close is a
// no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
