package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	satpg "repro"
	"repro/internal/atpg"
	"repro/internal/compact"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/resultstore"
	"repro/internal/service"
	"repro/internal/sim"
)

// The audit-service traffic mix.  A pass replays one seeded stream of
// passRequests requests over conns closed-loop connections against a
// fresh server and store, so its store hits are exactly the stream's
// repeats; a run makes enough passes to send at least minRequests.
const (
	conns           = 2
	passRequests    = 350
	minRequests     = 1000
	repeatShare     = 0.40 // of each kind, repeats of a request the connection already sent
	compactShare    = 0.08 // compactions among all requests; the rest are coverage audits
	auditTests      = 64
	auditCycles     = 12
	compactPrograms = 96
	poolWalks       = 160 // valid walks drawn per circuit; requests sample from them
	// auditNominal is a pass's time on a 2-CPU machine; with the run's
	// seconds it sets the pass count.
	auditNominal = 7500 * time.Millisecond
)

const (
	kindCoverage = iota
	kindCompact
)

// auditReq is one distinct request of the stream.
type auditReq struct {
	kind    int
	circuit int
	body    []byte
	tests   []satpg.Test    // coverage audits
	progs   []satpg.Program // compactions
}

type auditWorkload struct {
	names    []string
	texts    []string
	ids      []string
	circuits []*satpg.Circuit // parsed in-process, for the oracle and probes
	reqs     []*auditReq
	sched    [conns][]int // per connection: indices into reqs, in send order
	repeats  int
}

// validWalk draws a test of n cycles on the scalar ternary machine:
// each cycle flips one or two inputs and keeps the first of eight
// proposals that settles fully definite (else holds the inputs), the
// §5.4 validity criterion — bare random patterns rarely settle
// definitely on the ISCAS corpus.
func validWalk(c *satpg.Circuit, reset logic.Vec, rng *rand.Rand, n int, buf *sim.SettleBuf) satpg.Test {
	st := reset.Clone()
	var rails uint64
	for i := 0; i < c.NumInputs(); i++ {
		if st[i] == logic.One {
			rails |= 1 << uint(i)
		}
	}
	var t satpg.Test
	for step := 0; step < n; step++ {
		for try := 0; try < 8; try++ {
			cand := rails
			for f := 1 + rng.Intn(2); f > 0; f-- {
				cand ^= 1 << uint(rng.Intn(c.NumInputs()))
			}
			if r := buf.ApplyVector(c, st, cand, nil); r.Definite() {
				copy(st, r.State)
				rails = cand
				break
			}
		}
		var out uint64
		for j, s := range c.Outputs {
			if st[s] == logic.One {
				out |= 1 << uint(j)
			}
		}
		t.Patterns = append(t.Patterns, rails)
		t.Expected = append(t.Expected, out)
	}
	return t
}

// poolSeed draws the walk pools.  The pools are the workload's fixed
// corpus of valid programs, like the circuits; the run seed picks and
// orders the requests drawn from them, so a run's content varies with
// the seed but not the quality of the corpus it samples.
const poolSeed = 1

// newAuditWorkload generates the run's whole request stream: walk pools
// per circuit, then per connection a seeded sequence of new requests
// and repeats of its own earlier ones.
func newAuditWorkload(seed int64) (*auditWorkload, error) {
	a := &auditWorkload{names: []string{"s349", "s953"}}
	poolRng := rand.New(rand.NewSource(poolSeed))
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]satpg.Test, len(a.names))
	for i, name := range a.names {
		b, err := os.ReadFile(filepath.Join("examples", "iscas", name+".ckt"))
		if err != nil {
			return nil, err
		}
		c, err := satpg.ParseCircuitString(string(b), name)
		if err != nil {
			return nil, err
		}
		a.texts = append(a.texts, string(b))
		a.ids = append(a.ids, service.CircuitID(string(b)))
		a.circuits = append(a.circuits, c)
		reset := sim.Machine{C: c}.InitState()
		var buf sim.SettleBuf
		for w := 0; w < poolWalks; w++ {
			t := validWalk(c, reset, poolRng, auditCycles, &buf)
			if !atpg.VerifyDirectGood(c, t) {
				return nil, fmt.Errorf("%s: generated walk %d is not a valid test", name, w)
			}
			pools[i] = append(pools[i], t)
		}
	}
	sample := func(pool []satpg.Test, n int) []satpg.Test {
		out := make([]satpg.Test, n)
		for i, j := range rng.Perm(len(pool))[:n] {
			out[i] = pool[j]
		}
		return out
	}
	seen := map[[32]byte]bool{}
	newReq := func(kind, circuit int) (int, error) {
		for {
			r := &auditReq{kind: kind, circuit: circuit}
			var err error
			if kind == kindCompact {
				reset := atpg.ResetOutputs(a.circuits[circuit])
				for _, t := range sample(pools[circuit], compactPrograms) {
					r.progs = append(r.progs, satpg.Program{Patterns: t.Patterns, Expected: t.Expected, ResetExpected: reset})
				}
				req := service.CompactRequest{Circuit: a.ids[circuit]}
				for _, p := range r.progs {
					req.Programs = append(req.Programs, service.ProgramJSON{Patterns: p.Patterns, Expected: p.Expected, ResetExpected: p.ResetExpected})
				}
				r.body, err = json.Marshal(req)
			} else {
				r.tests = sample(pools[circuit], auditTests)
				req := service.CoverageRequest{Circuit: a.ids[circuit]}
				for _, t := range r.tests {
					req.Tests = append(req.Tests, service.TestJSON{Patterns: t.Patterns, Expected: t.Expected})
				}
				r.body, err = json.Marshal(req)
			}
			if err != nil {
				return 0, err
			}
			// A request must be new to the store for its miss to follow
			// from the seed; redraw on the rare collision.
			if key := sha256.Sum256(r.body); !seen[key] {
				seen[key] = true
				a.reqs = append(a.reqs, r)
				return len(a.reqs) - 1, nil
			}
		}
	}
	// The mix is exact per connection — so many audits per circuit, so
	// many compactions, so many repeats of each — and only the order
	// and the programs follow the seed, so runs at different seeds do
	// the same kinds of work.
	perConn := passRequests / conns
	nCompact := int(math.Round(compactShare * float64(perConn)))
	classes := []struct{ kind, circuit, n int }{
		{kindCompact, 0, nCompact},
		{kindCoverage, 0, (perConn - nCompact) / 2},
		{kindCoverage, 1, perConn - nCompact - (perConn-nCompact)/2},
	}
	for k := 0; k < conns; k++ {
		var slots []int // class index per position
		for ci, cl := range classes {
			for j := 0; j < cl.n; j++ {
				slots = append(slots, ci)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		// The first request of a class is new; its repeats are drawn
		// among the class's later positions.
		repeat := make([]bool, len(slots))
		for ci, cl := range classes {
			var later []int
			first := true
			for j, c := range slots {
				if c == ci {
					if !first {
						later = append(later, j)
					}
					first = false
				}
			}
			for _, i := range rng.Perm(len(later))[:int(math.Round(repeatShare*float64(cl.n)))] {
				repeat[later[i]] = true
			}
		}
		sent := make([][]int, len(classes)) // this connection's distinct requests, by class
		for j, ci := range slots {
			if repeat[j] {
				a.sched[k] = append(a.sched[k], sent[ci][rng.Intn(len(sent[ci]))])
				a.repeats++
				continue
			}
			idx, err := newReq(classes[ci].kind, classes[ci].circuit)
			if err != nil {
				return nil, err
			}
			sent[ci] = append(sent[ci], idx)
			a.sched[k] = append(a.sched[k], idx)
		}
	}
	return a, nil
}

// auditServer is one fresh service instance behind a loopback listener.
type auditServer struct {
	dir    string
	store  *resultstore.Store
	svc    *service.Server
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
	open   time.Duration // resultstore.Open
}

// start brings up a server on a fresh store and interns the circuits;
// this is the workload's set-up.
func (a *auditWorkload) start(cfg config, tr *tracer, root int, run string) (*auditServer, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return nil, err
	}
	s := &auditServer{dir: dir}
	sp := tr.start(root, run, "resultstore.open")
	t0 := time.Now()
	s.store, err = resultstore.Open(dir, 0)
	s.open = time.Since(t0)
	tr.stop(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sp = tr.start(root, run, "service.listen")
	s.svc = service.New(service.Config{Store: s.store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.stop(sp)
		s.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = &http.Server{Handler: s.svc, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	tr.stop(sp)
	sp = tr.start(root, run, "service.intern")
	defer tr.stop(sp)
	for i, text := range a.texts {
		body, status, err := s.post("/v1/circuits", []byte(text))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var info service.CircuitInfo
		if err == nil {
			err = json.Unmarshal(body, &info)
		}
		if err == nil && info.ID != a.ids[i] {
			err = fmt.Errorf("interned %s as %s, want %s", a.names[i], info.ID, a.ids[i])
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("interning %s: %w", a.names[i], err), s.stop())
		}
	}
	return s, nil
}

func (s *auditServer) post(path string, body []byte) ([]byte, int, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// stop shuts the server down, waits for it, and removes its store.
func (s *auditServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.svc.Close()
	s.client.CloseIdleConnections()
	err = errors.Join(err, s.store.Close(), os.RemoveAll(s.dir))
	return err
}

// scrape reads the /metrics counters.
func (s *auditServer) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// storeBytes sums the size of the store's files.
func storeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// reqRecord is what the client saw of one request.
type reqRecord struct {
	req       int
	repeat    bool // the schedule makes this a store hit
	err       error
	status    int
	lat       time.Duration
	size      int
	replay    [32]byte // hash of the body with its from_store flag removed
	fromStore bool
	elapsed   time.Duration // server-side elapsed_ns (misses)
	detected  int
	after     int
	patterns  int64
	gateEvals int64
	cov       *service.CoverageResponse // misses only
	cmp       *service.CompactResponse  // misses only
	failed    bool                      // already counted as a failed op
}

var fromStoreField = []byte(`"from_store":true,`)

// connLoop is one closed-loop connection: it sends its schedule in
// order, each request after the previous answer has been read.
func (a *auditWorkload) connLoop(s *auditServer, k int, tr *tracer, root int, run string) []reqRecord {
	out := make([]reqRecord, 0, len(a.sched[k]))
	sentBefore := map[int]bool{}
	for _, ri := range a.sched[k] {
		r := a.reqs[ri]
		rec := reqRecord{req: ri, repeat: sentBefore[ri]}
		sentBefore[ri] = true
		path, name := "/v1/coverage", "service.coverage"
		if r.kind == kindCompact {
			path, name = "/v1/compact", "service.compact"
		}
		sp := tr.start(root, run, name)
		t0 := time.Now()
		var body []byte
		body, rec.status, rec.err = s.post(path, r.body)
		rec.lat = time.Since(t0)
		tr.stop(sp)
		rec.size = len(body)
		rec.replay = sha256.Sum256(bytes.Replace(body, fromStoreField, nil, 1))
		if rec.err == nil && rec.status == http.StatusOK {
			if r.kind == kindCompact {
				var cr service.CompactResponse
				if rec.err = json.Unmarshal(body, &cr); rec.err == nil {
					rec.fromStore, rec.after, rec.elapsed = cr.FromStore, cr.After, time.Duration(cr.ElapsedNS)
					rec.cmp = &cr
				}
			} else {
				var cv service.CoverageResponse
				if rec.err = json.Unmarshal(body, &cv); rec.err == nil {
					rec.fromStore, rec.detected, rec.elapsed = cv.FromStore, cv.Detected, time.Duration(cv.ElapsedNS)
					rec.patterns, rec.gateEvals = cv.Patterns, cv.GateEvals
					rec.cov = &cv
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

type auditPass struct {
	setup, wall, total time.Duration
	open               time.Duration
	recs               []reqRecord
	metrics            map[string]float64
	logBytes           int64
	cache              fsim.CacheStats
}

// pass brings up a fresh server, replays the stream, scrapes /metrics
// and tears the server down.
func (a *auditWorkload) pass(cfg config, tr *tracer, run string) (*auditPass, error) {
	root := tr.start(-1, run, "pass")
	t0 := time.Now()
	s, err := a.start(cfg, tr, root, run)
	if err != nil {
		return nil, err
	}
	p := &auditPass{setup: time.Since(t0), open: s.open}
	before := fsim.TraceCacheStats()
	t1 := time.Now()
	recs := make([][]reqRecord, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[k] = a.connLoop(s, k, tr, root, run)
		}()
	}
	wg.Wait()
	p.wall = time.Since(t1)
	after := fsim.TraceCacheStats()
	p.cache = fsim.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Waits: after.Waits - before.Waits}
	for _, r := range recs {
		p.recs = append(p.recs, r...)
	}
	sp := tr.start(root, run, "service.metrics")
	p.metrics, err = s.scrape()
	tr.stop(sp)
	p.logBytes = storeBytes(s.dir)
	sp = tr.start(root, run, "service.shutdown")
	err = errors.Join(err, s.stop())
	tr.stop(sp)
	tr.stop(root)
	p.total = time.Since(t0)
	return p, err
}

// verdictDigest hashes a miss's verdicts, everything but its timing.
func verdictDigest(rec *reqRecord) [32]byte {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	if rec.cov != nil {
		put(int64(rec.cov.Total), int64(rec.cov.Detected), rec.cov.Patterns)
		for _, v := range rec.cov.PerFault {
			put(b2i(v.Detected), int64(v.Test), int64(v.Cycle))
		}
	}
	if rec.cmp != nil {
		put(int64(rec.cmp.Before), int64(rec.cmp.After), int64(rec.cmp.Detected))
		for _, k := range rec.cmp.Kept {
			put(int64(k))
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// checkPass gates the ops of one pass that need no reference: status,
// store hit exactly when the schedule repeats, replays byte-identical
// to the first answer, verdicts equal to the first pass's, and the
// server's counters matching the stream.  firstDigests is nil for the
// first pass, whose verdicts go to the oracle instead.
func (a *auditWorkload) checkPass(rep *report, p *auditPass, pi int, firstDigests map[int][32]byte) map[int][32]byte {
	digests := map[int][32]byte{}
	answers := map[int][32]byte{}
	for i := range p.recs {
		rec := &p.recs[i]
		rep.attempted++
		rec.failed = true
		switch {
		case rec.err != nil:
			rep.fail("pass %d request %d: %v", pi, rec.req, rec.err)
			continue
		case rec.status != http.StatusOK:
			rep.fail("pass %d request %d: status %d", pi, rec.req, rec.status)
			continue
		case rec.fromStore != rec.repeat:
			rep.fail("pass %d request %d: from_store=%v but the stream makes it a repeat=%v", pi, rec.req, rec.fromStore, rec.repeat)
			continue
		}
		if rec.repeat {
			if rec.replay != answers[rec.req] {
				rep.fail("pass %d request %d: store replay differs from the first answer", pi, rec.req)
				continue
			}
			rec.failed = false
			continue
		}
		answers[rec.req] = rec.replay
		d := verdictDigest(rec)
		digests[rec.req] = d
		if firstDigests != nil && d != firstDigests[rec.req] {
			rep.fail("pass %d request %d: verdicts differ from pass 1", pi, rec.req)
			continue
		}
		rec.failed = false
	}
	want := map[string]float64{
		"satpgd_result_store_hits_total":   float64(a.repeats),
		"satpgd_result_store_misses_total": float64(len(a.reqs)),
		"satpgd_errors_total":              0,
		"satpgd_encode_failures_total":     0,
	}
	for name, v := range want {
		if got, ok := p.metrics[name]; !ok || got != v {
			rep.mismatch("pass %d: /metrics %s = %v, want %v", pi, name, got, v)
		}
	}
	return digests
}

// oracleRefs holds what the in-process references measured.
type oracleRefs struct {
	allocs, patterns int64
}

// oracle checks the first pass's answers against in-process
// references: each coverage audit's per-fault verdicts against
// satpg.FaultSimBatch, each compaction's kept programs against the
// originals and its coverage verdict-equal to the full program's.
func (a *auditWorkload) oracle(rep *report, p *auditPass) oracleRefs {
	var refs oracleRefs
	for i := range p.recs {
		rec := &p.recs[i]
		if rec.repeat || rec.failed {
			continue
		}
		if err := a.checkAnswer(rec, &refs); err != nil {
			rep.fail("request %d: %v", rec.req, err)
		}
	}
	return refs
}

func (a *auditWorkload) checkAnswer(rec *reqRecord, refs *oracleRefs) error {
	r := a.reqs[rec.req]
	c := a.circuits[r.circuit]
	if r.kind == kindCoverage {
		ref, err := satpg.FaultSimBatch(c, satpg.InputStuckAt, r.tests, satpg.Options{})
		if err != nil {
			return err
		}
		refs.allocs += ref.Stats.Allocs
		refs.patterns += ref.Stats.Patterns
		got := rec.cov
		if got.Total != ref.Total || got.Detected != ref.Detected || len(got.PerFault) != len(ref.PerFault) || got.Patterns != ref.Stats.Patterns {
			return fmt.Errorf("%s audit: %d/%d detected over %d patterns, reference %d/%d over %d",
				a.names[r.circuit], got.Detected, got.Total, got.Patterns, ref.Detected, ref.Total, ref.Stats.Patterns)
		}
		for fi, v := range got.PerFault {
			w := ref.PerFault[fi]
			if v.Detected != w.Detected || v.Test != w.TestIndex || v.Cycle != w.Cycle {
				return fmt.Errorf("%s audit: fault %d verdict %+v, reference %+v", a.names[r.circuit], fi, v, w)
			}
		}
		return nil
	}
	got := rec.cmp
	if got.Before != len(r.progs) || got.After != len(got.Kept) || got.After != len(got.Programs) || got.After == 0 {
		return fmt.Errorf("compaction sizes inconsistent: before=%d after=%d kept=%d", got.Before, got.After, len(got.Kept))
	}
	kept := make([]satpg.Program, len(got.Kept))
	for i, k := range got.Kept {
		if k < 0 || k >= len(r.progs) || (i > 0 && k <= got.Kept[i-1]) {
			return fmt.Errorf("kept index %d out of order or range", k)
		}
		pj := got.Programs[i]
		kept[i] = satpg.Program{Patterns: pj.Patterns, Expected: pj.Expected, ResetExpected: pj.ResetExpected}
		if !sameProgram(kept[i], r.progs[k]) {
			return fmt.Errorf("kept program %d is not original program %d", i, k)
		}
	}
	full, err := satpg.MeasureProgramCoverage(c, r.progs, satpg.InputStuckAt, satpg.Options{})
	if err != nil {
		return err
	}
	after, err := satpg.MeasureProgramCoverage(c, kept, satpg.InputStuckAt, satpg.Options{})
	if err != nil {
		return err
	}
	if !full.VerdictsEqual(after) || full.Detected != got.Detected {
		return fmt.Errorf("compaction changed coverage: %d detected before, %d after, server says %d", full.Detected, after.Detected, got.Detected)
	}
	return nil
}

// dropPayloads releases the decoded answers of a pass once checked.
func (p *auditPass) dropPayloads() {
	for i := range p.recs {
		p.recs[i].cov, p.recs[i].cmp = nil, nil
	}
}

func (a *auditWorkload) timeSetups(cfg config, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := a.start(cfg, nil, -1, "")
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// streamTotals returns what a pass told its user: detected faults over
// every coverage answer and kept programs over every compaction answer.
func streamTotals(p *auditPass) (detected, kept int) {
	for _, rec := range p.recs {
		detected += rec.detected
		kept += rec.after
	}
	return detected, kept
}

func runAuditService(cfg config) (*report, error) {
	a, err := newAuditWorkload(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{checksOK: true, metrics: map[string]float64{}}
	if cfg.traced {
		return a.trace(cfg, rep)
	}
	setups, err := a.timeSetups(cfg, setupSamples)
	if err != nil {
		return nil, err
	}
	var passes []*auditPass
	var digests map[int][32]byte
	var rss float64
	var oracle time.Duration
	var detected, kept int
	for k := 0; k < passCount(cfg, auditNominal, (minRequests+passRequests-1)/passRequests); k++ {
		freshHeap()
		p, err := a.pass(cfg, nil, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup)
		d := a.checkPass(rep, p, k+1, digests)
		if k == 0 {
			rss = peakRSSMB() // set-up and one pass, before any oracle runs
			digests = d
			t0 := time.Now()
			a.oracle(rep, p)
			oracle = time.Since(t0)
			detected, kept = streamTotals(p)
		}
		p.dropPayloads()
		passes = append(passes, p)
	}

	var walls, qps []float64
	var lats []time.Duration
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		qps = append(qps, float64(len(p.recs))/p.wall.Seconds())
		for _, rec := range p.recs {
			lats = append(lats, rec.lat)
		}
	}
	rep.set("setup_s", median(seconds(setups)))
	rep.set("wall_s", median(walls))
	rep.set("op_p99_ms", percentile(millis(lats), 99))
	rep.set("ops_per_s", median(qps))
	rep.set("faults_covered", float64(detected))
	rep.set("program_tests", float64(kept))
	rep.set("peak_rss_mb", rss)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"pass walls=%.3v s; requests/pass=%d distinct=%d repeats=%d latency samples=%d (p99 has %d beyond) setup samples=%d oracle=%.2fs failed=%d/%d",
		walls, len(passes[0].recs), len(a.reqs), a.repeats, len(lats), len(lats)/100, len(setups),
		oracle.Seconds(), rep.failed, rep.attempted))
	return rep, nil
}

// serviceLayerMetrics are the per-layer metrics only audit-service
// exercises; the generation workloads report them as 0.
var serviceLayerMetrics = []string{
	"service.request_p50_ms", "service.coverage_p50_ms", "service.compact_p50_ms", "service.store_hit_p50_ms",
	"service.server_ms", "service.overhead_ms", "service.response_kb",
	"service.errors", "service.encode_failures",
	"resultstore.hits", "resultstore.misses", "resultstore.hit_ratio",
	"resultstore.evictions", "resultstore.log_mb", "resultstore.open_s",
}

// generationLayerMetrics are the per-layer metrics only the generation
// workloads exercise; audit-service reports them as 0.
var generationLayerMetrics = []string{
	"core.build_s", "core.builds", "core.states", "core.edges",
	"atpg.generate_s", "atpg.random_s", "atpg.fallback_calls", "atpg.fallback_s",
	"atpg.untestable", "atpg.aborted", "atpg.tests_generated",
	"podem.targeted", "podem.found", "podem.found_ratio", "podem.decisions",
	"podem.backtracks", "podem.settles", "podem.target_s", "podem.us_per_decision",
}

// trace is the per-layer run of audit-service: one untraced pass as
// the overhead baseline, one traced pass, the oracle, and a probe that
// re-runs each compaction in-process to split matrix from passes.
func (a *auditWorkload) trace(cfg config, rep *report) (*report, error) {
	var parses []time.Duration
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		for j, text := range a.texts {
			if _, err := satpg.ParseCircuitString(text, a.names[j]); err != nil {
				return nil, err
			}
		}
		parses = append(parses, time.Since(t0))
	}
	freshHeap()
	base, err := a.pass(cfg, nil, "")
	if err != nil {
		return nil, err
	}
	digests := a.checkPass(rep, base, 1, nil)
	base.dropPayloads()
	tr := newTracer()
	rep.tr = tr
	freshHeap()
	p, err := a.pass(cfg, tr, "pass")
	if err != nil {
		return nil, err
	}
	a.checkPass(rep, p, 2, digests)
	t0 := time.Now()
	refs := a.oracle(rep, p)
	oracle := time.Since(t0)

	// Probe: each distinct compaction again in-process, alone and from
	// an empty good-trace cache — its detection matrix, then the whole
	// compaction — so the split is not skewed by the other connection's
	// load on the server.
	probeRoot := tr.start(-1, "probe", "probe")
	var matrix, compaction time.Duration
	var matrixPatterns int64
	universe := satpg.Universe(a.circuits[0], satpg.InputStuckAt)
	for _, rec := range p.recs {
		if rec.repeat || rec.cmp == nil {
			continue
		}
		progs := a.reqs[rec.req].progs
		flushTraceCache()
		sp := tr.start(probeRoot, "probe", "compact.matrix")
		mx, err := compact.BuildMatrix(a.circuits[0], progs, universe, compact.Options{})
		matrix += tr.stop(sp)
		if err == nil {
			flushTraceCache()
			sp = tr.start(probeRoot, "probe", "compact.program")
			_, err = compact.Compact(a.circuits[0], progs, universe, compact.ModeAll, compact.Options{})
			compaction += tr.stop(sp)
		}
		if err != nil {
			rep.mismatch("probe request %d: %v", rec.req, err)
			continue
		}
		matrixPatterns += mx.Stats.Patterns
	}
	tr.stop(probeRoot)

	var covLat, cmpLat, hitLat, server, overhead []time.Duration
	var bytesTotal int64
	var covElapsed time.Duration
	var patterns, gateEvals int64
	var before, after int
	for _, rec := range p.recs {
		bytesTotal += int64(rec.size)
		switch {
		case rec.repeat:
			hitLat = append(hitLat, rec.lat)
			continue
		case rec.cmp != nil:
			cmpLat = append(cmpLat, rec.lat)
			before += rec.cmp.Before
			after += rec.cmp.After
		case rec.cov != nil:
			covLat = append(covLat, rec.lat)
			covElapsed += rec.elapsed
			patterns += rec.patterns
			gateEvals += rec.gateEvals
		}
		server = append(server, rec.elapsed)
		overhead = append(overhead, rec.lat-rec.elapsed)
	}
	spans := tr.snapshot()
	root, err := rootSpan(spans, "pass")
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans, "pass")
	rootDur := (root.End - root.Start).Seconds()
	hits, misses := p.metrics["satpgd_result_store_hits_total"], p.metrics["satpgd_result_store_misses_total"]

	for _, m := range generationLayerMetrics {
		rep.set(m, 0) // no CSSG, generation or PODEM behind the audit API
	}
	rep.set("netlist.parse_s", median(seconds(parses)))
	rep.set("fsim.patterns", float64(patterns))
	rep.set("fsim.gate_evals", float64(gateEvals))
	rep.set("fsim.gate_evals_per_pattern", ratio(float64(gateEvals), float64(patterns)))
	rep.set("fsim.allocs", float64(refs.allocs))
	rep.set("fsim.allocs_per_pattern", ratio(float64(refs.allocs), float64(refs.patterns)))
	rep.set("fsim.timed_s", covElapsed.Seconds())
	rep.set("fsim.timed_patterns", float64(patterns))
	rep.set("fsim.ns_per_pattern", ratio(float64(covElapsed.Nanoseconds()), float64(patterns)))
	rep.set("fsim.trace_cache_hits", float64(p.cache.Hits))
	rep.set("fsim.trace_cache_misses", float64(p.cache.Misses))
	rep.set("fsim.trace_cache_waits", float64(p.cache.Waits))
	rep.set("compact.matrix_s", matrix.Seconds())
	rep.set("compact.passes_s", compaction.Seconds()-matrix.Seconds())
	rep.set("compact.tests_before", float64(before))
	rep.set("compact.tests_after", float64(after))
	rep.set("compact.matrix_patterns", float64(matrixPatterns))
	var all []time.Duration
	for _, rec := range p.recs {
		all = append(all, rec.lat)
	}
	rep.set("service.request_p50_ms", median(millis(all)))
	rep.set("service.coverage_p50_ms", median(millis(covLat)))
	rep.set("service.compact_p50_ms", median(millis(cmpLat)))
	rep.set("service.store_hit_p50_ms", median(millis(hitLat)))
	rep.set("service.server_ms", median(millis(server)))
	rep.set("service.overhead_ms", median(millis(overhead)))
	rep.set("service.response_kb", float64(bytesTotal)/float64(len(p.recs))/1024)
	rep.set("service.errors", p.metrics["satpgd_errors_total"])
	rep.set("service.encode_failures", p.metrics["satpgd_encode_failures_total"])
	rep.set("resultstore.hits", hits)
	rep.set("resultstore.misses", misses)
	rep.set("resultstore.hit_ratio", ratio(hits, hits+misses))
	rep.set("resultstore.evictions", p.metrics["satpgd_result_store_evictions_total"])
	rep.set("resultstore.log_mb", float64(p.logBytes)/(1<<20))
	rep.set("resultstore.open_s", p.open.Seconds())
	rep.set("oracle.check_s", oracle.Seconds())
	var traced, untraced []time.Duration
	for i := range p.recs {
		traced = append(traced, p.recs[i].lat)
		untraced = append(untraced, base.recs[i].lat)
	}
	rep.set("trace.overhead_frac", overheadFrac(traced, untraced))
	setShares(rep, self, rootDur)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"traced pass %.2fs (untraced %.2fs); samples: coverage misses %d, compaction misses %d, store hits %d; failed=%d/%d",
		p.total.Seconds(), base.total.Seconds(), len(covLat), len(cmpLat), len(hitLat), rep.failed, rep.attempted))
	return rep, nil
}
