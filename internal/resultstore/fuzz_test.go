package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzResultStoreReplay appends arbitrary bytes to a store log written
// by Put — a torn record, garbage, or well-formed records of their own —
// and reopens it twice, with one Put in between.  Open must never panic
// or fail; every key Put through the store must keep returning exactly
// its body; and any other key the replay indexed must return a body
// that appears verbatim in the appended bytes, never a splice of two
// records.
func FuzzResultStoreReplay(f *testing.F) {
	f.Add(uint8(3), []byte(`{"key":"k1","bo`))
	f.Add(uint8(2), []byte("garbage\n{\"key\":\"k0\",\"body\":7}\n"))
	f.Add(uint8(1), []byte{0xff, 0, '\n', '{'})
	f.Add(uint8(0), []byte(`{"key":"fresh","body":{"x":1}}`))
	f.Add(uint8(4), []byte("{\"key\":\"k9\",\"body\":[1,2]}\n{\"key\":\"k3\",\"body\":{}}"))
	f.Fuzz(func(t *testing.T, n uint8, tail []byte) {
		dir := t.TempDir()
		s, err := Open(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		put := map[string]string{}
		for i := 0; i < int(n%6); i++ {
			k, body := fmt.Sprintf("k%d", i), fmt.Sprintf(`{"i":%d}`, i)
			if err := s.Put(k, []byte(body)); err != nil {
				t.Fatal(err)
			}
			put[k] = body
		}
		s.Close()
		lf, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lf.Write(tail); err != nil {
			t.Fatal(err)
		}
		lf.Close()

		for round := 0; round < 2; round++ {
			s, err := Open(dir, 2)
			if err != nil {
				t.Fatalf("round %d: Open after appending %q: %v", round, tail, err)
			}
			for k, body := range put {
				if got, ok := s.Get(k); !ok || string(got) != body {
					t.Fatalf("round %d: Get(%q) = %q, %v; want the Put body %s", round, k, got, ok, body)
				}
			}
			for k := range s.index {
				if _, ok := put[k]; ok {
					continue
				}
				if got, ok := s.Get(k); ok && !bytes.Contains(tail, got) {
					t.Fatalf("round %d: Get(%q) = %q, which was neither Put nor appended", round, k, got)
				}
			}
			// A Put after a torn tail must land on a line of its own.
			if _, ok := s.Get("fresh"); round == 0 && !ok {
				if err := s.Put("fresh", []byte(`{"fresh":true}`)); err != nil {
					t.Fatal(err)
				}
				put["fresh"] = `{"fresh":true}`
			}
			s.Close()
		}
	})
}
