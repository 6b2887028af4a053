// Package compact shrinks a finished test program without losing a
// single detection: static test-program compaction over an exact
// detection matrix.
//
// The paper's flow (and this repository's ATPG) emits one test per
// targeted fault plus whatever the random phase produced, so program
// size grows linearly while most late tests only re-detect
// already-covered faults — and program size is exactly what a
// production tester pays for.  Compaction runs after generation: one
// batched fsim pass computes the full test × fault detection matrix
// (each test rides one lane of the pattern-parallel simulator, one
// representative per structural equivalence class is simulated, each
// batch's good trace and cone limiting apply unchanged), and three
// composable passes then drop redundant tests:
//
//   - reverse-order drop: tests are scanned last-to-first and kept only
//     when they detect a not-yet-covered class representative — the
//     classic reverse-order fault-simulation pass, which exploits the
//     fact that late deterministic tests target hard faults while early
//     random tests mostly re-detect easy ones;
//   - dominance-aware pruning: faults.Collapsed.DominatorClosure
//     proposes "every test detecting fault i also detects its dominator
//     chain" implications, each link is verified against the matrix
//     (dominance is a combinational structural argument and sequential
//     feedback can break it, so nothing is trusted unverified), and the
//     verified implications release the dominators' coverage
//     obligations, letting a fixpoint sweep remove tests whose every
//     detection another kept test already implies;
//   - greedy set cover: the quality backstop — reselect a small subset
//     covering every obligation, most-new-detections first.
//
// Every pass preserves the measured coverage *bit-identically*: a
// fault is detected by the compacted program iff it was detected by
// the original, fault for fault (not just the ratio), because the
// passes only ever drop a test when each of its matrix detections is
// carried by another kept test.  The property, differential and fuzz
// suites assert exactly that against tester.MeasureCoverage with both
// fsim engines.
package compact

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// Mode selects which compaction passes run.
type Mode uint8

// Compaction modes.  ModeAll chains reverse-order drop, dominance
// pruning and greedy reselection, looping until the program stops
// shrinking (which also makes it idempotent, like every single pass).
const (
	ModeNone      Mode = iota // keep every test (matrix-only measurement)
	ModeReverse               // reverse-order fault-simulation drop
	ModeDominance             // dominance-aware pruning (matrix-verified)
	ModeGreedy                // greedy set-cover reselection
	ModeAll                   // all three, iterated to a fixpoint
)

// String names the mode as the CLI spells it.
func (m Mode) String() string {
	switch m {
	case ModeReverse:
		return "reverse"
	case ModeDominance:
		return "dominance"
	case ModeGreedy:
		return "greedy"
	case ModeAll:
		return "all"
	}
	return "none"
}

// ParseMode resolves a CLI keyword ("none", "reverse", "dominance",
// "greedy", "all").
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "none":
		return ModeNone, true
	case "reverse":
		return ModeReverse, true
	case "dominance":
		return ModeDominance, true
	case "greedy":
		return ModeGreedy, true
	case "all":
		return ModeAll, true
	}
	return ModeNone, false
}

// Options has no settings: the matrix-building fault simulation runs
// on GOMAXPROCS workers.  The struct stays in the signatures so that
// callers written against it keep compiling.
type Options struct{}

// Result is the outcome of one compaction.
type Result struct {
	Mode   Mode
	Before int // tests in the original program
	After  int // tests kept
	// Kept lists the kept tests as ascending indices into the original
	// program, and Programs the corresponding subset, in order.
	Kept     []int
	Programs []tester.Program
	// Obligations is the number of representative fault classes the
	// original program detects — the detections the compacted program
	// must reproduce (member verdicts follow their representative's).
	Obligations int
	// Implied counts the obligations released by matrix-verified
	// dominance implications (ModeDominance and ModeAll only).
	Implied int
	// Rounds is the number of pass-pipeline iterations (1 for the
	// single-pass modes; ModeAll loops until the program stops
	// shrinking).
	Rounds  int
	Matrix  *Matrix
	Elapsed time.Duration
}

// Reduction returns the fractional size reduction (0 when the original
// program was already empty).
func (r *Result) Reduction() float64 {
	if r.Before == 0 {
		return 0
	}
	return 1 - float64(r.After)/float64(r.Before)
}

// Summary renders a one-line report.
func (r *Result) Summary() string {
	return fmt.Sprintf("compact mode=%s: %d -> %d tests (-%.1f%%) obligations=%d implied=%d rounds=%d matrix=%d patterns elapsed=%v",
		r.Mode, r.Before, r.After, 100*r.Reduction(), r.Obligations, r.Implied,
		r.Rounds, r.Matrix.Stats.Patterns, r.Elapsed.Round(time.Microsecond))
}

// Compact shrinks the program over the fault universe with the chosen
// mode.  The detection matrix is computed once (see BuildMatrix) and
// every pass operates on it; the kept subset always detects exactly
// the faults the original program detects.  One guard rail: when every
// test is redundant (the program detects nothing), the lowest-indexed
// test is kept rather than returning an empty program — measuring an
// empty program set compares the reset response against the good
// machine's own settled outputs instead of the programs' declared
// ResetExpected, and that semantic switch could *add* detections the
// original never made.
func Compact(c *netlist.Circuit, progs []tester.Program, universe []faults.Fault, mode Mode, opts Options) (*Result, error) {
	return CompactCtx(context.Background(), c, progs, universe, mode, opts)
}

// CompactCtx is Compact with cooperative cancellation.  The context
// gates the matrix pass (the expensive part — the passes themselves
// are pure bit-mask sweeps); a cancelled run returns ctx.Err() and no
// result, because a program compacted against a partial matrix could
// drop detections.
func CompactCtx(ctx context.Context, c *netlist.Circuit, progs []tester.Program, universe []faults.Fault, mode Mode, opts Options) (*Result, error) {
	start := time.Now()
	mx, err := BuildMatrixCtx(ctx, c, progs, universe, opts)
	if err != nil {
		return nil, err
	}
	cl := faults.Collapse(c, universe)

	// Obligations: the detected class representatives.  Equivalent
	// faults carry bit-identical matrix rows (fsim fans each verdict out
	// to the whole class), so preserving the representatives preserves
	// every member's verdict.
	required := make([]bool, len(universe))
	obligations := 0
	for fi := range universe {
		if cl.Rep[fi] == fi && mx.Rows[fi].Any() {
			required[fi] = true
			obligations++
		}
	}

	res := &Result{
		Mode: mode, Before: len(progs),
		Obligations: obligations, Rounds: 1, Matrix: mx,
	}
	kept := make([]int, len(progs))
	for t := range kept {
		kept[t] = t
	}

	switch mode {
	case ModeReverse:
		kept = reverseDrop(mx, required, kept)
	case ModeDominance:
		// Implications are re-verified on the matrix restricted to the
		// surviving tests each round: that restriction is exactly the
		// matrix a re-run on the compacted program would compute (lane
		// verdicts are per-program), so looping to a fixpoint here is
		// what makes the mode idempotent.
		res.Rounds = 0
		for {
			res.Rounds++
			n := len(kept)
			var reduced []bool
			reduced, res.Implied = impliedObligations(cl, mx, required, kept)
			kept = removalSweep(mx, reduced, kept)
			if len(kept) == n {
				break
			}
		}
	case ModeGreedy:
		kept = greedyCover(mx, required, kept)
	case ModeAll:
		res.Rounds = 0
		for {
			res.Rounds++
			n := len(kept)
			kept = reverseDrop(mx, required, kept)
			var reduced []bool
			reduced, res.Implied = impliedObligations(cl, mx, required, kept)
			kept = removalSweep(mx, reduced, kept)
			kept = greedyCover(mx, reduced, kept)
			if len(kept) == n {
				break
			}
		}
	}
	if len(kept) == 0 && len(progs) > 0 && mode != ModeNone {
		kept = []int{0}
	}
	res.After = len(kept)
	res.Kept = kept
	res.Programs = make([]tester.Program, len(kept))
	for i, t := range kept {
		res.Programs[i] = progs[t]
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// colsFor lists, per test, the required fault indices the test detects.
func colsFor(mx *Matrix, required []bool, kept []int) [][]int {
	cols := make([][]int, mx.NumTests)
	inKept := make([]bool, mx.NumTests)
	for _, t := range kept {
		inKept[t] = true
	}
	for fi, need := range required {
		if !need {
			continue
		}
		forEachLane(mx.Rows[fi], func(t int) {
			if inKept[t] {
				cols[t] = append(cols[t], fi)
			}
		})
	}
	return cols
}

// forEachLane calls fn with every set lane index of the mask.
func forEachLane(m fsim.LaneMask, fn func(int)) {
	for w, word := range m {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// reverseDrop is the reverse-order fault-simulation pass: scan the
// kept tests last-to-first and keep only those that detect a required
// fault no later kept test already covers.  Every required fault's
// last detecting test is necessarily kept, so coverage is preserved
// exactly; the pass is idempotent because the covered-set evolution of
// a re-run over the survivors is identical.
func reverseDrop(mx *Matrix, required []bool, kept []int) []int {
	cols := colsFor(mx, required, kept)
	covered := make([]bool, len(required))
	out := make([]int, 0, len(kept))
	for i := len(kept) - 1; i >= 0; i-- {
		t := kept[i]
		need := false
		for _, fi := range cols[t] {
			if !covered[fi] {
				need = true
				break
			}
		}
		if !need {
			continue
		}
		for _, fi := range cols[t] {
			covered[fi] = true
		}
		out = append(out, t)
	}
	// Restore ascending program order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// impliedObligations verifies dominance implications against the
// matrix restricted to the kept tests and returns the reduced
// obligation set: required minus the faults whose detection every
// kept detecting test already guarantees through a dominated fault.
// A dominator j is released by anchor i when (a) j lies on i's
// DominatorClosure chain, (b) the restricted matrix confirms the
// structural claim — every kept test detecting i detects j — and (c)
// i < j in fault-index order.  Condition (c) makes the anchor relation
// acyclic (feedback rings can chain dominators back onto themselves,
// and two faults with equal rows would otherwise release each other,
// leaving nothing to cover them), so covering the reduced set provably
// covers every released dominator: follow anchors downward to an
// unreleased fault, whose kept detecting test sits in every restricted
// superset row along the chain — an argument that survives further
// test removal, because restriction only ever adds subset relations.
// Both the subset check and the index order are restriction-stable,
// which is what keeps the dominance fixpoint loop (and therefore
// compaction itself) idempotent across re-runs on its own output.
func impliedObligations(cl faults.Collapsed, mx *Matrix, required []bool, kept []int) (reduced []bool, implied int) {
	reduced = make([]bool, len(required))
	copy(reduced, required)
	keptMask := make(fsim.LaneMask, (mx.NumTests+63)/64)
	for _, t := range kept {
		keptMask[t>>6] |= 1 << uint(t&63)
	}
	// restrict intersects a row with the kept tests; rows[i] ∩ kept ⊆
	// rows[j] is then rows[i] ∩ kept ⊆ rows[j] ∩ kept, the restricted
	// subset the doc argument needs.
	restrict := func(row fsim.LaneMask) fsim.LaneMask {
		out := make(fsim.LaneMask, len(row))
		for w, word := range row {
			if w < len(keptMask) {
				out[w] = word & keptMask[w]
			}
		}
		return out
	}
	for i := range required {
		if !required[i] {
			continue
		}
		closure := cl.DominatorClosure(i)
		if len(closure) == 0 {
			continue
		}
		ri := restrict(mx.Rows[i])
		for _, j := range closure {
			jr := cl.Rep[j]
			if !reduced[jr] || jr <= i {
				continue
			}
			if ri.ContainedIn(mx.Rows[jr]) {
				reduced[jr] = false
				implied++
			}
		}
	}
	return reduced, implied
}

// removalSweep drops tests whose every (reduced-)obligation detection
// is carried by another kept test, sweeping from the last test down.
// Removals only ever shrink the cover counts, so a test blocked once
// stays blocked — a single sweep reaches the fixpoint, which also
// makes the pass idempotent.
func removalSweep(mx *Matrix, required []bool, kept []int) []int {
	cols := colsFor(mx, required, kept)
	cnt := make(map[int]int)
	for _, t := range kept {
		for _, fi := range cols[t] {
			cnt[fi]++
		}
	}
	removed := make([]bool, mx.NumTests)
	for i := len(kept) - 1; i >= 0; i-- {
		t := kept[i]
		droppable := true
		for _, fi := range cols[t] {
			if cnt[fi] < 2 {
				droppable = false
				break
			}
		}
		if !droppable {
			continue
		}
		removed[t] = true
		for _, fi := range cols[t] {
			cnt[fi]--
		}
	}
	out := kept[:0]
	for _, t := range kept {
		if !removed[t] {
			out = append(out, t)
		}
	}
	return out
}

// greedyCover reselects a subset of the kept tests covering every
// required fault: repeatedly pick the test detecting the most
// still-uncovered faults (lowest index on ties).  The input always
// covers every obligation (each pass preserves coverage), so the loop
// terminates with a full cover; re-running it on its own output
// reproduces the same picks, so the pass is idempotent.
func greedyCover(mx *Matrix, required []bool, kept []int) []int {
	cols := colsFor(mx, required, kept)
	uncovered := 0
	need := make([]bool, len(required))
	for fi, r := range required {
		if r {
			need[fi] = true
			uncovered++
		}
	}
	picked := make([]bool, mx.NumTests)
	var out []int
	for uncovered > 0 {
		best, bestGain := -1, 0
		for _, t := range kept {
			if picked[t] {
				continue
			}
			gain := 0
			for _, fi := range cols[t] {
				if need[fi] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = t, gain
			}
		}
		if best < 0 {
			panic("compact: obligations not coverable by the kept tests")
		}
		picked[best] = true
		out = append(out, best)
		for _, fi := range cols[best] {
			if need[fi] {
				need[fi] = false
				uncovered--
			}
		}
	}
	// Emit in ascending program order (selection order is internal).
	res := kept[:0]
	for _, t := range kept {
		if picked[t] {
			res = append(res, t)
		}
	}
	return res
}
