package atpg

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// RunDirectCtx is the CSSG-free ATPG flow for circuits past the 64-signal
// ceiling of the explicit-state abstraction (and valid at any size):
// random walks are generated directly on the scalar ternary machine —
// a vector is emitted only when the settling is fully definite, which
// per §5.4 means the applied pattern has a unique successor state under
// every delay assignment, exactly the validity criterion the CSSG's
// edges encode — and screened against the fault universe with the
// batched bit-parallel fault simulator.
//
// Detection semantics match the rest of the repository: a fault counts
// as covered only when some cycle's response is guaranteed to differ
// from the expected outputs under every delay assignment (a definite
// output opposite a definite good value).  Unlike RunUniverseCtx there is
// no exact-machine confirmation pass — that pass exists to reconcile
// ternary detections with the CSSG's strictly more pessimistic
// path-based TCR_k semantics, and the direct flow's contract is the
// ternary (fair finite-delay) semantics itself.  The flow is
// walks-only: there is no three-phase targeting and no other
// deterministic search, so past 64 signals the walks are the only way
// a fault gets a test.
//
// The one untestability proof the flow has is structural: before the
// walks, every fault whose gate's fanout cone holds no primary output
// (faults.Unobservable) is marked Untestable and Unobservable, and the
// screens never see it.  Any other fault the walks miss stays
// uncovered (Detected=false) with no verdict, since without the CSSG
// there is no exhaustive search to prove it untestable.
//
// Cancellation is checked at every batch boundary.  On cancellation it
// returns the partial Result accumulated so far together with
// ctx.Err().
func RunDirectCtx(ctx context.Context, c *netlist.Circuit, model faults.Type, universe []faults.Fault, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	res, remaining, fs, err := newRun(c, model, universe, opts)
	if err != nil {
		return nil, err
	}
	reset := sim.Machine{C: c}.InitState()
	const width = fsim.Lanes

	// Walk generation runs on GOMAXPROCS workers and is pipelined with
	// the fault simulation: while chunk k settles in SimulateBatch the
	// workers are already drawing the walks of chunk k+1 and beyond.
	// Each walk's randomness is a pure function of (seed, index) via
	// walkSeed, and the selection replay below consumes chunks strictly
	// in index order, so the emitted test program is byte-identical for
	// a fixed seed regardless of the worker count or finish order.
	total := max(opts.RandomSequences, 0)
	if opts.SkipRandom {
		total = 0
	}
	walks := make([]Test, total)
	workers := min(runtime.GOMAXPROCS(0), max(total, 1))
	numChunks := (total + width - 1) / width
	ready := make([]chan struct{}, numChunks)
	chunkLeft := make([]int32, numChunks)
	for k := range ready {
		ready[k] = make(chan struct{})
		chunkLeft[k] = int32(min((k+1)*width, total) - k*width)
	}
	var nextWalk int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf sim.SettleBuf
			for !stop.Load() {
				i := int(atomic.AddInt64(&nextWalk, 1)) - 1
				if i >= total {
					return
				}
				rng := rand.New(rand.NewSource(walkSeed(opts.Seed, i)))
				walks[i] = directWalk(c, reset, rng, opts.RandomLength, &buf)
				if atomic.AddInt32(&chunkLeft[i/width], -1) == 0 {
					close(ready[i/width])
				}
			}
		}()
	}

	// NoDrop keeps the full fault × walk matrix so the sequential
	// test-selection replay of screenWalks is observably identical to
	// per-walk simulation; a walk joins the program only when it is the
	// first to detect some still-live fault.
screen:
	for k := 0; k < numChunks && len(remaining) > 0; k++ {
		select {
		case <-ready[k]:
		case <-ctx.Done():
			break screen
		}
		var err error
		if remaining, err = screenWalks(fs, res, remaining, walks[k*width:min((k+1)*width, total)], nil); err != nil {
			stop.Store(true)
			wg.Wait()
			return nil, err
		}
	}
	stop.Store(true)
	wg.Wait()

	res.FaultSim = fs.Stats()
	res.CPU = time.Since(start)
	return res, ctx.Err()
}

// walkSeed derives the rng seed of walk i from the run seed by a
// splitmix64 step, making each walk's randomness a pure function of
// (seed, index) — independent of which worker draws it and of every
// other walk.
func walkSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// directWalk draws one valid random test sequence on the scalar ternary
// machine.  Each cycle proposes a few small perturbations of the
// current rails (flipping one or two inputs — an asynchronous
// environment rarely switches many inputs at once, and single-bit
// changes are far more likely to settle definitely); the first fully
// definite settling is accepted.  When every proposal races, the walk
// holds the current rails for a cycle, which is trivially valid (the
// state is already settled).  buf provides the settling scratch, so
// the eight-candidate proposal loop allocates nothing; the walker's
// state is copied out of the scratch on acceptance (a later rejected
// proposal would otherwise clobber it).
func directWalk(c *netlist.Circuit, reset logic.Vec, rng *rand.Rand, length int, buf *sim.SettleBuf) Test {
	const tries = 8
	m := c.NumInputs()
	st := reset.Clone()
	rails := railsOf(c, st)
	var t Test
	for step := 0; step < length; step++ {
		for k := 0; k < tries; k++ {
			cand := rails
			flips := 1 + rng.Intn(2)
			for f := 0; f < flips; f++ {
				cand ^= 1 << uint(rng.Intn(m))
			}
			if r := buf.ApplyVector(c, st, cand, nil); r.Definite() {
				copy(st, r.State)
				rails = cand
				break
			}
		}
		t.Patterns = append(t.Patterns, rails)
		t.Expected = append(t.Expected, sim.Machine{C: c}.PackOutputs(st))
	}
	return t
}

// railsOf packs the definite primary-input rails of a ternary state.
func railsOf(c *netlist.Circuit, st logic.Vec) uint64 {
	var w uint64
	for i := 0; i < c.NumInputs(); i++ {
		if st[i] == logic.One {
			w |= 1 << uint(i)
		}
	}
	return w
}

// ResetOutputs returns the packed primary outputs of the good machine's
// settled reset state — the ResetExpected word of a tester program in
// the direct flow (the CSSG flow reads it off the abstraction instead).
func ResetOutputs(c *netlist.Circuit) uint64 {
	m := sim.Machine{C: c}
	return m.PackOutputs(m.InitState())
}

// VerifyDirectGood replays a test on the fault-free scalar ternary
// machine and reports whether every cycle settles fully definite with
// outputs bit-equal to Expected — the oracle check of the direct flow's
// walk generation and of the packed-state engines behind it.
func VerifyDirectGood(c *netlist.Circuit, t Test) bool {
	m := sim.Machine{C: c}
	st := m.InitState()
	for i, p := range t.Patterns {
		st = m.Step(st, p)
		if !st.AllDefinite() || m.PackOutputs(st) != t.Expected[i] {
			return false
		}
	}
	return true
}

// VerifyDirect replays a test on the faulty scalar ternary machine and
// reports whether detection is guaranteed: some cycle produces a
// definite output opposite the expected bit, so every delay assignment
// of the faulty chip mismatches the tester there.
func VerifyDirect(c *netlist.Circuit, f faults.Fault, t Test) bool {
	m := sim.Machine{C: c, Fault: &f}
	st := m.InitState()
	for i, p := range t.Patterns {
		st = m.Step(st, p)
		for j, s := range c.Outputs {
			v := st[s]
			if !v.IsDefinite() {
				continue
			}
			if (v == logic.One) != (t.Expected[i]>>uint(j)&1 == 1) {
				return true
			}
		}
	}
	return false
}
