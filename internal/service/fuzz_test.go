package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// FuzzServiceRequest posts arbitrary bodies to the request decoders of
// /v1/circuits, /v1/coverage and /v1/compact on one in-process Server
// with s27 interned.  Whatever the body, the answer is 200, 400 or 413
// — a malformed request is the client's fault, so it is never a 5xx, a
// 422 after work started or a panic — and a 200 body decodes into the
// endpoint's response type.  One seed posts a test one pattern past
// MaxTraceCells.  /v1/generate stays out: its caps admit up
// to MaxRandomVectors walk vectors, far too slow for one fuzz
// execution, and TestRequestValidation covers its validation.
func FuzzServiceRequest(f *testing.F) {
	text, c := loadISCAS(f, "s27")
	srv := service.New(service.Config{})
	req := httptest.NewRequest("POST", "/v1/circuits", bytes.NewReader([]byte(text)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var info service.CircuitInfo
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
		f.Fatalf("interning s27: %d %s", rec.Code, rec.Body.String())
	}
	paths := []string{"/v1/circuits", "/v1/coverage", "/v1/compact"}

	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	tests := randomTests(c, 3, 4, 1)
	progs := []service.ProgramJSON{{Patterns: []uint64{1, 2}, Expected: []uint64{0, 1}}, {Patterns: []uint64{3}, Expected: []uint64{1}}}
	coverage := mustJSON(service.CoverageRequest{Circuit: info.ID, Faults: "both", Tests: tests})
	compact := mustJSON(service.CompactRequest{Circuit: info.ID, Mode: "all", Programs: progs})
	f.Add(uint8(0), []byte(text))
	f.Add(uint8(1), coverage)
	f.Add(uint8(1), mustJSON(service.CoverageRequest{CircuitText: text, Stream: true, Tests: tests}))
	f.Add(uint8(2), compact)
	f.Add(uint8(1), mustJSON(map[string]any{"circuit": info.ID, "lanes": 256, "tests": tests}))
	f.Add(uint8(2), mustJSON(map[string]any{"circuit": info.ID, "lanes": 7, "programs": progs}))
	f.Add(uint8(1), mustJSON(map[string]any{"circuit": info.ID, "workers": 1 << 30, "tests": tests}))
	f.Add(uint8(2), mustJSON(map[string]any{"circuit": info.ID, "workers": -1, "programs": progs}))
	f.Add(uint8(1), mustJSON(map[string]any{
		"circuit": info.ID, "tests": tests, "skip_podem": true, "podem_budget": -1, "podem_cycles": 99,
	}))
	f.Add(uint8(1), coverage[:len(coverage)/2])
	f.Add(uint8(2), compact[:len(compact)/2])
	f.Add(uint8(0), []byte(text[:len(text)/2]))
	long := make([]uint64, service.MaxTraceCells/c.NumSignals()+1)
	f.Add(uint8(1), mustJSON(service.CoverageRequest{Circuit: info.ID, Tests: []service.TestJSON{{Patterns: long}}}))

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := paths[int(which)%len(paths)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("%s %q = %d %s; want 200, 400 or 413", path, body, rec.Code, rec.Body.String())
		}
		var err error
		switch path {
		case "/v1/circuits":
			err = json.Unmarshal(rec.Body.Bytes(), new(service.CircuitInfo))
		case "/v1/compact":
			err = json.Unmarshal(rec.Body.Bytes(), new(service.CompactResponse))
		default:
			// A streamed answer is batch lines, then the report line.
			var last service.CoverageResponse
			sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
			sc.Buffer(nil, service.MaxRequestBytes)
			for sc.Scan() && err == nil {
				err = json.Unmarshal(sc.Bytes(), &last)
			}
			if err == nil && last.Kind != "report" {
				t.Fatalf("%s %q: 200 without a final report line:\n%s", path, body, rec.Body.String())
			}
		}
		if err != nil {
			t.Fatalf("%s %q: 200 body does not decode: %v\n%s", path, body, err, rec.Body.String())
		}
	})
}
