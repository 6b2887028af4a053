package service_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/atpg"
	"repro/internal/service"
	"repro/internal/sim"
)

// storeSemanticsDigest pins the verdicts the server answers for the
// fixed coverage and compaction requests of TestStoreSemanticsDigest.
const storeSemanticsDigest = "5f928e040944aa5d"

// TestStoreSemanticsDigest is the tripwire for the result store's
// semantics salt: the store serves a stored answer for any request
// whose key matches, so a change that alters what the server answers —
// a coverage verdict, or the programs compaction keeps — must also bump
// storeSemantics (internal/service/resultcache.go).  Both requests are
// fixed data on s27: random pattern sequences judged against the good
// machine, and the same sequences as tester programs with the good
// machine's responses declared.
func TestStoreSemanticsDigest(t *testing.T) {
	text, c := loadISCAS(t, "s27")
	srv := service.New(service.Config{})
	tests := randomTests(c, 48, 8, 5)
	cov := decodeCoverage(t, postJSON(t, srv, "/v1/coverage", &service.CoverageRequest{
		CircuitText: text, Tests: tests,
	}))

	m := sim.Machine{C: c}
	progs := make([]service.ProgramJSON, len(tests))
	for i, ts := range tests {
		st := m.InitState()
		progs[i] = service.ProgramJSON{Patterns: ts.Patterns, ResetExpected: atpg.ResetOutputs(c)}
		for _, p := range ts.Patterns {
			st = m.Step(st, p)
			progs[i].Expected = append(progs[i].Expected, m.PackOutputs(st))
		}
	}
	rec := postJSON(t, srv, "/v1/compact", &service.CompactRequest{CircuitText: text, Programs: progs})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact failed: %d %s", rec.Code, rec.Body.String())
	}
	var cmp service.CompactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cmp); err != nil {
		t.Fatal(err)
	}
	if cov.Detected == 0 || cmp.After == 0 {
		t.Fatalf("vacuous requests: %d faults detected, %d programs kept", cov.Detected, cmp.After)
	}

	h := sha256.New()
	put := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	put(cov.Total, cov.Detected, len(cov.PerFault))
	for _, v := range cov.PerFault {
		d := 0
		if v.Detected {
			d = 1
		}
		put(d, v.Test, v.Cycle)
	}
	put(cmp.Before, cmp.After, cmp.Detected, len(cmp.Kept))
	put(cmp.Kept...)
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != storeSemanticsDigest {
		t.Fatalf("the server's verdicts moved: digest %s, want %s.  A store written before this change would "+
			"serve the old answers, so bump storeSemantics in internal/service/resultcache.go, then re-pin "+
			"storeSemanticsDigest and TestStoreKeysStable's keys", got, storeSemanticsDigest)
	}
}
