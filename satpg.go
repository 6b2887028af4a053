// Package satpg generates synchronous test patterns for asynchronous
// circuits, reproducing Roig, Cortadella, Peña & Pastor, "Automatic
// Generation of Synchronous Test Patterns for Asynchronous Circuits"
// (DAC 1997).
//
// The flow has three steps:
//
//  1. Load a gate-level circuit (.ckt text format or a bundled
//     benchmark).  The circuit follows the unbounded inertial
//     gate-delay model; feedback loops are allowed and every primary
//     input is buffered, as in the paper.
//  2. Abstract the circuit into its Confluent Stable State Graph: the
//     deterministic synchronous FSM of all (stable state, input vector)
//     pairs that neither race nor oscillate within the k-transition
//     test cycle.
//  3. Generate stuck-at tests on the CSSG with random TPG, three-phase
//     ATPG and bit-parallel ternary fault simulation (64 test
//     sequences per machine word), then (optionally)
//     compact the test program over its exact detection matrix
//     (CompactProgram — coverage preserved fault for fault) and
//     validate the vectors on a timed model of the chip under random
//     bounded delay assignments.
//
// Quickstart:
//
//	c, _ := satpg.LoadBenchmark("si/chu150")
//	res, _ := satpg.Run(context.Background(), c, satpg.InputStuckAt, satpg.Options{Seed: 1})
//	fmt.Println(res.Summary())
//
// Run picks the CSSG flow or the size-agnostic direct flow by circuit
// size (Options.Flow overrides), runs random walks and — in the CSSG
// flow — three-phase targeting of the faults they miss, and honours
// context cancellation at every batch and search boundary.
package satpg

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/atpg"
	"repro/internal/baseline"
	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/dft"
	"repro/internal/faults"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/stg"
	"repro/internal/tester"
)

// Re-exported building blocks.  The concrete types live in internal
// packages; these aliases are the supported public surface.
type (
	// Circuit is a gate-level asynchronous circuit.
	Circuit = netlist.Circuit
	// CSSG is the synchronous abstraction (confluent stable state graph).
	CSSG = core.CSSG
	// Fault is a single stuck-at fault site.
	Fault = faults.Fault
	// FaultModel selects input or output stuck-at faults.
	FaultModel = faults.Type
	// Result is a full ATPG outcome.
	Result = atpg.Result
	// Test is one synchronous test sequence with expected responses.
	Test = atpg.Test
	// Program is a tester-ready stimulus/response program.
	Program = tester.Program
	// Benchmark is a named suite circuit.
	Benchmark = circuits.Benchmark
	// VectorAnalysis classifies one (state, vector) pair.
	VectorAnalysis = core.VectorAnalysis
	// EdgeClass is the classification of a (state, vector) pair.
	EdgeClass = core.EdgeClass
	// BaselineComparison is the §6.1 virtual-flip-flop comparison.
	BaselineComparison = baseline.Comparison
	// STG is a signal transition graph specification (Petrify .g format).
	STG = stg.Net
	// Conformance is the closed-loop circuit-vs-STG verification result.
	Conformance = stg.ConformanceResult
	// TestPoint is a DFT observation or control point.
	TestPoint = dft.Point
	// Hazard is a semi-modularity violation along a valid vector.
	Hazard = core.Hazard
	// SelfCheckReport is the §1 self-checking experiment result.
	SelfCheckReport = stg.SelfCheckReport
	// CoverageReport is a batched bit-parallel coverage measurement.
	CoverageReport = atpg.CoverageReport
	// FaultCoverage is the per-fault verdict of a CoverageReport.
	FaultCoverage = atpg.FaultCoverage
	// ProgramCoverageSummary is the tester-side coverage measurement.
	ProgramCoverageSummary = tester.CoverageSummary
	// FaultSimStats reports fault-simulation work counters.
	FaultSimStats = fsim.Stats
	// FaultSelection picks which fault universes a flow targets: the
	// stuck-at model alone, the transition universe alone, or both.
	FaultSelection = faults.Selection
	// CompactMode selects the test-program compaction passes.
	CompactMode = compact.Mode
	// CompactionResult is the outcome of one program compaction.
	CompactionResult = compact.Result
	// DetectionMatrix is the exact per-program × per-fault detection
	// matrix a compaction argues against.
	DetectionMatrix = compact.Matrix
)

// MaxExplicitSignals is the signal-count ceiling of the explicit-state
// subsystems (Abstract and the CSSG flow, the STG tooling and the timed
// tester model), which pack one state per machine word.  The
// packed-state simulation engines — and the direct flow built on them —
// go up to MaxSignals.
const (
	MaxExplicitSignals = netlist.WordBits
	// MaxSignals is the absolute circuit-size ceiling of the multi-word
	// packed-state engines.
	MaxSignals = netlist.MaxSignals
)

// Test-point kinds.
const (
	ObservePoint = dft.Observe
	ControlPoint = dft.Control
)

// Fault models.  TransitionFaults selects the gross gate-delay model
// (slow-to-rise / slow-to-fall), the paper's §7 extension direction.
const (
	OutputStuckAt    = faults.OutputSA
	InputStuckAt     = faults.InputSA
	TransitionFaults = faults.Transition
)

// Fault selections (Options.Faults, cmd/satpg -faults): which
// universes the flow targets on top of the chosen stuck-at model.
const (
	SelectStuckAt    = faults.SelStuckAt    // the stuck-at model only (default)
	SelectTransition = faults.SelTransition // the transition universe only
	SelectBoth       = faults.SelBoth       // stuck-at ∪ transition
)

// ParseFaultSelection resolves the CLI keyword ("sa", "transition",
// "both") of a fault selection.
func ParseFaultSelection(s string) (FaultSelection, bool) { return faults.ParseSelection(s) }

// Compaction modes (Options.Compact, cmd/satpg -compact): which passes
// shrink a finished test program over its exact detection matrix.
// Every mode preserves the measured coverage bit-identically, fault
// for fault.
const (
	CompactNone      = compact.ModeNone      // keep every test (default)
	CompactReverse   = compact.ModeReverse   // reverse-order fault-sim drop
	CompactDominance = compact.ModeDominance // dominance-aware pruning
	CompactGreedy    = compact.ModeGreedy    // greedy set-cover reselection
	CompactAll       = compact.ModeAll       // all three, iterated to a fixpoint
)

// ParseCompactMode resolves the CLI keyword ("none", "reverse",
// "dominance", "greedy", "all") of a compaction mode.
func ParseCompactMode(s string) (CompactMode, bool) { return compact.ParseMode(s) }

// Vector classifications (see Analyze).
const (
	VectorValid        = core.Valid
	VectorNonConfluent = core.NonConfluent
	VectorUnsettled    = core.Unsettled
	VectorTruncated    = core.Truncated
)

// Options tunes the whole flow; zero values select documented defaults.
type Options struct {
	// K is the test-cycle length in gate transitions (0: 4·NumSignals).
	K int
	// Seed drives the random-TPG walks (0: 1).
	Seed int64
	// RandomSequences and RandomLength size the random phase
	// (0: 256 walks of 24 vectors); SkipRandom disables it.
	RandomSequences int
	RandomLength    int
	SkipRandom      bool
	// SkipFaultSim disables collateral fault dropping after each
	// three-phase test of the CSSG flow; the direct flow has no such
	// screen, so there it changes nothing.
	SkipFaultSim bool
	// Faults selects which universes Run, GenerateCtx, FaultSimBatch and
	// MeasureProgramCoverage target: the chosen stuck-at model
	// (SelectStuckAt, the default), the transition universe
	// (SelectTransition), or their union (SelectBoth).  Transition
	// faults ride the same batched bit-parallel machinery as stuck-at
	// faults, injected as directional override masks.
	Faults FaultSelection
	// Compact selects the test-program compaction passes CompactProgram
	// runs (CompactNone, the default, keeps every test).  Compaction
	// never changes a single per-fault verdict of the measured
	// coverage; it only removes tests whose every detection another
	// kept test carries.
	Compact CompactMode
	// Flow selects the generation flow Run uses: FlowAuto (the default)
	// picks the CSSG flow for circuits within MaxExplicitSignals and
	// the direct flow past it; FlowCSSG and FlowDirect force one.
	Flow Flow
	// SkipPodem is ignored: no flow has a PODEM phase.  It stays only
	// because the atpgbench module still sets it.
	SkipPodem bool
	// PodemBudget is ignored, and kept for atpgbench, like SkipPodem.
	PodemBudget int
}

// Flow selects which generation flow Run uses.
type Flow uint8

// Generation flows.
const (
	// FlowAuto (the default) picks FlowCSSG for circuits within
	// MaxExplicitSignals and FlowDirect past it.
	FlowAuto Flow = iota
	// FlowCSSG abstracts the circuit into its confluent stable state
	// graph and generates on it — the paper's exact flow, limited to
	// MaxExplicitSignals signals.
	FlowCSSG
	// FlowDirect generates on the scalar/packed ternary machines
	// without building a CSSG — valid at any size up to MaxSignals.
	FlowDirect
)

func (f Flow) String() string {
	switch f {
	case FlowAuto:
		return "auto"
	case FlowCSSG:
		return "cssg"
	case FlowDirect:
		return "direct"
	}
	return fmt.Sprintf("Flow(%d)", uint8(f))
}

// Validate reports the first nonsensical option with a descriptive
// error, or nil.  Run calls it; zero values are always valid (they
// select the documented defaults).
func (o Options) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("satpg: K must be ≥ 0, got %d (0 selects the 4·NumSignals default)", o.K)
	}
	switch o.Flow {
	case FlowAuto, FlowCSSG, FlowDirect:
	default:
		return fmt.Errorf("satpg: unknown flow %d (want FlowAuto, FlowCSSG or FlowDirect)", uint8(o.Flow))
	}
	return o.atpgOpts().Validate()
}

func (o Options) coreOpts() core.Options { return core.Options{K: o.K} }

func (o Options) atpgOpts() atpg.Options {
	return atpg.Options{
		Seed:            o.Seed,
		RandomSequences: o.RandomSequences,
		RandomLength:    o.RandomLength,
		SkipRandom:      o.SkipRandom,
		SkipFaultSim:    o.SkipFaultSim,
	}
}

// ParseCircuit reads a circuit in .ckt format; name is used in errors.
func ParseCircuit(r io.Reader, name string) (*Circuit, error) {
	return netlist.Parse(r, name)
}

// ParseCircuitString parses an in-memory .ckt description.
func ParseCircuitString(src, name string) (*Circuit, error) {
	return netlist.ParseString(src, name)
}

// LoadBenchmark resolves a bundled benchmark: "si/<name>" (Table 1
// suite), "hf/<name>" (Table 2 suite), "fig1a" or "fig1b".
func LoadBenchmark(ref string) (*Circuit, error) { return circuits.Lookup(ref) }

// SpeedIndependentSuite returns the Table-1 benchmark set in row order.
func SpeedIndependentSuite() []Benchmark { return circuits.SpeedIndependent() }

// HazardFreeSuite returns the Table-2 benchmark set in row order.
func HazardFreeSuite() []Benchmark { return circuits.HazardFree() }

// Abstract builds the CSSG_k of the circuit (§4): the synchronous FSM
// of valid test vectors.
func Abstract(c *Circuit, opts Options) (*CSSG, error) {
	return core.Build(c, opts.coreOpts())
}

// Analyze classifies a single (stable state, input pattern) pair
// exactly: valid, non-confluent, unsettled or truncated.
func Analyze(c *Circuit, stable, pattern uint64, opts Options) VectorAnalysis {
	return core.AnalyzeVector(c, stable, pattern, opts.coreOpts())
}

// Universe returns the fault list of the model for the circuit.
func Universe(c *Circuit, model FaultModel) []Fault {
	return faults.Universe(c, model)
}

// SelectedUniverse returns the fault list a selection targets: the
// stuck-at universe of the model, the transition universe, or their
// concatenation (stuck-at first).
func SelectedUniverse(c *Circuit, model FaultModel, sel FaultSelection) []Fault {
	return faults.SelectUniverse(c, model, sel)
}

// Run is the single ATPG entrypoint: it validates opts, selects the
// generation flow (Options.Flow; FlowAuto picks the CSSG flow within
// MaxExplicitSignals and the direct flow past it) and generates tests
// for the universe Options.Faults selects — random walks, then (CSSG
// flow only) three-phase targeting of the leftovers.
//
// The context cancels cooperatively at every batch and search
// boundary: on cancellation Run returns the partial Result accumulated
// so far together with ctx.Err(), and every test and verdict in that
// partial Result is as valid as a completed run's.  In the CSSG flow
// the built abstraction is returned via Result.Graph, so callers
// needing it (Programs, ValidateOnTester, the table tooling) don't
// abstract twice.
func Run(ctx context.Context, c *Circuit, model FaultModel, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	flow := opts.Flow
	if flow == FlowAuto {
		if c.NumSignals() <= MaxExplicitSignals {
			flow = FlowCSSG
		} else {
			flow = FlowDirect
		}
	}
	universe := faults.SelectUniverse(c, model, opts.Faults)
	if flow == FlowDirect {
		return atpg.RunDirectCtx(ctx, c, model, universe, opts.atpgOpts())
	}
	if c.NumSignals() > MaxExplicitSignals {
		return nil, fmt.Errorf("satpg: %s has %d signals, past the %d-signal ceiling of the CSSG flow (use FlowDirect or FlowAuto)",
			c.Name, c.NumSignals(), MaxExplicitSignals)
	}
	g, err := Abstract(c, opts)
	if err != nil {
		return nil, err
	}
	return atpg.RunUniverseCtx(ctx, g, model, universe, opts.atpgOpts())
}

// GenerateCtx runs the CSSG-flow ATPG (§5) on a prebuilt CSSG — the
// half of Run that follows Abstract, for callers that build or reuse
// the abstraction themselves.  It targets the universe Options.Faults
// selects (the model's stuck-at faults by default; SelectTransition or
// SelectBoth widen it to the gross gate-delay extension).
// Cancellation is checked at every batch and search boundary, and a
// cancelled run returns the partial Result alongside ctx.Err().
func GenerateCtx(ctx context.Context, g *CSSG, model FaultModel, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return atpg.RunUniverseCtx(ctx, g, model, faults.SelectUniverse(g.C, model, opts.Faults), opts.atpgOpts())
}

// VerifyTestDirect replays a test against one fault on the scalar
// ternary machine; true means detection is guaranteed for every delay
// assignment.  It is the size-agnostic counterpart of VerifyTest and
// the per-fault oracle of the multi-word engine parity suites.
func VerifyTestDirect(c *Circuit, f Fault, t Test) bool {
	return atpg.VerifyDirect(c, f, t)
}

// VerifyTest replays a test against one fault with the exact
// set-semantics machine; true means detection is guaranteed for every
// delay assignment.
func VerifyTest(g *CSSG, f Fault, t Test) bool {
	return atpg.Verify(g, f, t, atpg.Options{})
}

// FaultSimBatch measures the guaranteed coverage of a test set over the
// universe Options.Faults selects (the model's stuck-at faults, the
// transition universe, or both) with the bit-parallel fault simulator:
// tests ride the lanes of each 64-lane batch, only one representative per
// structural fault-equivalence class is simulated (verdicts fan out to the
// whole universe), the classes are spread across GOMAXPROCS goroutines,
// and faults are dropped from later batches once detected.
func FaultSimBatch(c *Circuit, model FaultModel, tests []Test, opts Options) (*CoverageReport, error) {
	return FaultSimBatchCtx(context.Background(), c, model, tests, opts)
}

// FaultSimBatchCtx is FaultSimBatch with cooperative cancellation,
// checked between batches; a cancelled measurement returns
// ctx.Err() and no report (a partial coverage number undercounts
// silently).
func FaultSimBatchCtx(ctx context.Context, c *Circuit, model FaultModel, tests []Test, opts Options) (*CoverageReport, error) {
	return atpg.CoverageOfCtx(ctx, c, faults.SelectUniverse(c, model, opts.Faults), tests, atpg.CoverageOptions{})
}

// FaultSimBatchShard is FaultSimBatch restricted to shard `shard` of a
// `shards`-way partition of the representative fault classes — the
// per-worker measurement of the distributed coverage flow.  The report
// carries its ownership mask; the reports of all `shards` shards (over
// the same circuit, model, tests and options) merge losslessly with
// MergeCoverageShards into a report whose per-fault verdicts are
// bit-identical to the unsharded FaultSimBatch.
func FaultSimBatchShard(c *Circuit, model FaultModel, tests []Test, shard, shards int, opts Options) (*CoverageReport, error) {
	return atpg.CoverageOfCtx(context.Background(), c, faults.SelectUniverse(c, model, opts.Faults), tests, atpg.CoverageOptions{
		Shard: shard, Shards: shards,
	})
}

// MergeCoverageShards folds the shard reports of a distributed
// measurement (FaultSimBatchShard over every shard index) into the
// single-process report: each fault's verdict is taken from the shard
// that owns it, and counters sum.
func MergeCoverageShards(reports []*CoverageReport) (*CoverageReport, error) {
	return atpg.MergeShardReports(reports)
}

// MeasureProgramCoverage is FaultSimBatch for tester programs: the
// stimulus/response view of the same measurement.
func MeasureProgramCoverage(c *Circuit, progs []Program, model FaultModel, opts Options) (ProgramCoverageSummary, error) {
	return tester.MeasureCoverage(c, progs, faults.SelectUniverse(c, model, opts.Faults))
}

// CompactProgram shrinks a tester program set over the universe
// Options.Faults selects, running the passes Options.Compact names on
// the exact detection matrix (one batched fsim pass).  The compacted
// program's measured coverage is bit-identical to the original's, per
// fault — only tests whose every detection another kept test carries
// are dropped.
func CompactProgram(c *Circuit, progs []Program, model FaultModel, opts Options) (*CompactionResult, error) {
	return CompactProgramCtx(context.Background(), c, progs, model, opts)
}

// CompactProgramCtx is CompactProgram with cooperative cancellation:
// the context gates the detection-matrix pass (the expensive part),
// checked between batches; a cancelled run returns
// ctx.Err() and no result.
func CompactProgramCtx(ctx context.Context, c *Circuit, progs []Program, model FaultModel, opts Options) (*CompactionResult, error) {
	return compact.CompactCtx(ctx, c, progs, faults.SelectUniverse(c, model, opts.Faults), opts.Compact,
		compact.Options{})
}

// Programs converts the result's tests into tester programs (stimulus
// plus expected responses, including the reset observation).
func Programs(g *CSSG, r *Result) []Program {
	out := make([]Program, len(r.Tests))
	for i, t := range r.Tests {
		out[i] = Program{
			Patterns:      t.Patterns,
			Expected:      t.Expected,
			ResetExpected: g.OutputsOf(g.Init),
		}
	}
	return out
}

// ProgramsForCircuit converts a direct-flow result's tests into tester
// programs; the reset observation is read off the settled reset state
// of the scalar good machine instead of a CSSG.
func ProgramsForCircuit(c *Circuit, r *Result) []Program {
	reset := atpg.ResetOutputs(c)
	out := make([]Program, len(r.Tests))
	for i, t := range r.Tests {
		out[i] = Program{
			Patterns:      t.Patterns,
			Expected:      t.Expected,
			ResetExpected: reset,
		}
	}
	return out
}

// FormatProgram renders a program as tester stimulus text.
func FormatProgram(c *Circuit, p Program) string { return tester.Format(c, p) }

// ValidateOnTester Monte-Carlo-validates the result on the timed chip
// model: the good circuit must match every program under `trials`
// random delay assignments, and every detected fault's program must
// mismatch on the corresponding faulty chip in every trial.  It returns
// an error describing the first violation, or nil.
func ValidateOnTester(g *CSSG, r *Result, trials int, seed int64) error {
	cycle := tester.CycleFor(g.Stats.MaxSettleDepth, 1.5)
	progs := Programs(g, r)
	for i, p := range progs {
		if _, mism := tester.MonteCarlo(g.C, p, trials, seed+int64(i), cycle); mism != 0 {
			return fmt.Errorf("satpg: good circuit mismatched program %d under %d delay assignments", i, mism)
		}
	}
	for fi, fr := range r.PerFault {
		if !fr.Detected {
			continue
		}
		fc := faults.Apply(g.C, fr.Fault)
		// Salt per fault, offset past the good-circuit loop's salts
		// (seed+i for i < len(progs)): an unsalted seed would reuse one
		// delay-assignment sample across every fault, so a systematic
		// blind spot of that single sample could pass validation.
		_, mism := tester.MonteCarlo(fc, progs[fr.TestIndex], trials, seed+int64(len(progs))+int64(fi), cycle)
		if mism != trials {
			return fmt.Errorf("satpg: fault %s evaded detection in %d/%d delay assignments",
				fr.Fault.Describe(g.C), trials-mism, trials)
		}
	}
	return nil
}

// ValidateDirect replays a direct-flow result against the scalar
// ternary oracle: every kept test must settle fully definite on the
// good machine with outputs bit-equal to its expected responses, and
// every detected fault's test must produce a definite output opposite
// the expected bit on the corresponding faulty machine.  This is the
// size-agnostic counterpart of ValidateOnTester — it checks that the
// packed multi-word engines' results are bit-identical to the scalar
// machine, fault for fault.
func ValidateDirect(c *Circuit, r *Result) error {
	for i, t := range r.Tests {
		if !atpg.VerifyDirectGood(c, t) {
			return fmt.Errorf("satpg: good circuit diverged from the scalar oracle on test %d", i)
		}
	}
	for _, fr := range r.PerFault {
		if !fr.Detected {
			continue
		}
		if !atpg.VerifyDirect(c, fr.Fault, r.Tests[fr.TestIndex]) {
			return fmt.Errorf("satpg: fault %s not confirmed by the scalar oracle on test %d",
				fr.Fault.Describe(c), fr.TestIndex)
		}
	}
	return nil
}

// CompareBaseline runs the §6.1 comparison: Banerjee-style virtual-FF
// synchronous ATPG followed by validation on the asynchronous circuit.
func CompareBaseline(g *CSSG, model FaultModel) BaselineComparison {
	return baseline.Compare(g, model, 200000)
}

// ParseSTG reads a specification in Petrify/SIS .g format.
func ParseSTG(r io.Reader, name string) (*STG, error) { return stg.Parse(r, name) }

// ParseSTGString parses an in-memory .g description.
func ParseSTGString(src, name string) (*STG, error) { return stg.ParseString(src, name) }

// Conform closes the circuit with the STG as its environment and checks
// that every output edge the circuit can produce is allowed by the
// specification and that expected outputs are eventually produced.
func Conform(c *Circuit, spec *STG) (Conformance, error) {
	return stg.Conform(c, spec, 0)
}

// InsertTestPoints returns a copy of the circuit instrumented with the
// given observation/control points (§6's testability aids).
func InsertTestPoints(c *Circuit, points []TestPoint) (*Circuit, error) {
	return dft.Insert(c, points)
}

// SelfCheck runs the §1 self-checking experiment: for every output
// stuck-at fault, does normal operation under the STG environment halt
// the circuit (deadlock or unspecified edge)?
func SelfCheck(c *Circuit, spec *STG) (SelfCheckReport, error) {
	return stg.SelfCheckAll(c, spec, 0)
}

// TableRow formats one benchmark row in the layout of the paper's
// Tables 1 and 2: output-SA totals/covered, input-SA totals/covered,
// and the rnd/3-ph/sim split of the input-SA run.
func TableRow(name string, out, in *Result) string {
	return fmt.Sprintf("%-16s %5d %5d   %5d %5d   %4d %5d %4d %5d %9s",
		name, out.Total, out.Covered, in.Total, in.Covered,
		in.ByPhase[atpg.PhaseRandom], in.ByPhase[atpg.PhaseThree], in.ByPhase[atpg.PhaseSim],
		in.Untestable, in.CPU.Round(time.Millisecond).String())
}

// TableHeader returns the column header matching TableRow.
func TableHeader() string {
	return fmt.Sprintf("%-16s %5s %5s   %5s %5s   %4s %5s %4s %5s %9s",
		"example", "o-tot", "o-cov", "i-tot", "i-cov", "rnd", "3-ph", "sim", "unt", "cpu")
}
