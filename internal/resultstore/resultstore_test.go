package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestMemoryOnlyPutGet(t *testing.T) {
	s, err := Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put("a", []byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	body, ok := s.Get("a")
	if !ok || string(body) != `{"n":1}` {
		t.Fatalf("Get(a) = %q, %v", body, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Indexed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionKeepsDiskReachable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 3 || st.Indexed != 5 {
		t.Fatalf("after 5 puts at cap 2: %+v", st)
	}
	// k0 was evicted from memory but must still hit via the log.
	body, ok := s.Get("k0")
	if !ok || string(body) != `{"i":0}` {
		t.Fatalf("evicted key: %q, %v", body, ok)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
}

// TestPutEvictedKeyKeepsCanonicalRecord re-puts a key the LRU evicted
// while the log still indexes it: the first record stays the answer, in
// this session and after a reopen, and the re-put is not counted.
func TestPutEvictedKeyKeepsCanonicalRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", `{"v":1}`}, {"b", `{"v":2}`}, {"a", `{"v":3}`}} {
		if err := s.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if body, ok := s.Get("a"); !ok || string(body) != `{"v":1}` {
		t.Fatalf("Get(a) = %q, %v; want the first record", body, ok)
	}
	if st := s.Stats(); st.Puts != 2 {
		t.Fatalf("re-putting an evicted key counted a put: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if body, ok := s.Get("a"); !ok || string(body) != `{"v":1}` {
		t.Fatalf("after reopen Get(a) = %q, %v; want the first record", body, ok)
	}
}

func TestReopenReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("alpha", []byte(`{"v":"a"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", []byte(`{"v":"b"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Indexed != 2 || st.Entries != 0 {
		t.Fatalf("reopened stats %+v", st)
	}
	body, ok := s2.Get("alpha")
	if !ok || string(body) != `{"v":"a"}` {
		t.Fatalf("cold hit: %q, %v", body, ok)
	}
	// Re-putting a replayed key must not append a second record.
	before := logSize(t, dir)
	if err := s2.Put("beta", []byte(`{"v":"b"}`)); err != nil {
		t.Fatal(err)
	}
	if after := logSize(t, dir); after != before {
		t.Fatalf("re-put grew the log: %d -> %d", before, after)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("whole", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: a trailing fragment with no newline.
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","bo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatalf("torn tail broke Open: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get("whole"); !ok {
		t.Fatal("intact record lost behind torn tail")
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn record served")
	}
	// New appends after the torn tail must stay readable.
	if err := s2.Put("fresh", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if body, ok := s3.Get("fresh"); !ok || string(body) != `{"v":2}` {
		t.Fatalf("post-torn append: %q, %v", body, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%20)
				if i%2 == 0 {
					s.Put(key, []byte(fmt.Sprintf(`{"i":%d}`, i%20)))
				} else {
					s.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		if body, ok := s.Get(key); ok && string(body) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("%s corrupted: %q", key, body)
		}
	}
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
