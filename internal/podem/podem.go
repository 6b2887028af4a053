// Package podem implements the deterministic ATPG phase: a
// path-oriented decision engine (PODEM) over the 5-valued D-calculus
// {0, 1, D, D̄, X}, bit-parallel across lanevec lanes.
//
// The classic algorithm picks an objective (excite the fault, then
// push the resulting D to an observable output), backtraces the
// objective to one primary-input assignment, implies, and backtracks
// on conflict — one decision per implication pass.  Here the
// D-calculus is encoded as a *pair* of ternary lane engines sharing
// per-lane input rails: the good machine and the faulty machine (the
// fault injected as override masks).  D at signal s in lane l is
// "good definitely 1 ∧ faulty definitely 0", D̄ dually; X is
// indefiniteness in either machine.  Because the engines are
// lanewise-independent, one event-kernel settle evaluates up to
// log2(lanes) primary-input decisions at once: the backtraced PI and
// up to kMax−1 further unassigned support PIs form a *decision
// group*, lane l applies the combination encoded by l's low bits, and
// the settle classifies all 2^k branches (detecting / D-alive /
// dead) in a single pass.  The search then commits the best lane and
// deepens, or retreats to the next untried lane — backtracking over
// lanes is free until a whole group is exhausted.
//
// Sequential depth comes from the paper's synchronous test abstraction:
// a frame that cannot observe the fault but can *latch* a definite
// difference into the feedback state emits that vector and searches
// the next frame from the advanced (good, faulty) state pair, up to
// MaxCycles frames, with one decision budget across the whole target.
//
// Every emitted test is validated on the scalar oracle before being
// returned: the good machine must settle fully definite on each vector
// (the paper's §5.4 validity condition) and the final frame must show
// a definite-opposite primary output under the fault.  Callers are
// still expected to re-confirm against their own flow semantics (the
// CSSG walk is more pessimistic than plain ternary settling).
package podem

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/lanevec"
	"repro/internal/netlist"
)

// Options configures a Generator.  The zero value selects 64 lanes, a
// 512-assignment decision budget and 8 frames per target.
type Options struct {
	// Lanes is the decision-branch width: 64 or 256 (0 → 64).
	// A group of k unassigned PIs needs 2^k lanes, so wider engines
	// explore deeper groups per settle.
	Lanes int
	// DecisionBudget bounds the primary-input assignments spent per
	// target fault across all frames (0 → 512).  PODEM is complete
	// only in the budget's limit; a blown budget aborts the target.
	DecisionBudget int
	// MaxCycles bounds the synchronous frames per target (0 → 8).
	MaxCycles int
}

func (o Options) withDefaults() Options {
	if o.Lanes == 0 {
		o.Lanes = lanevec.Lanes1
	}
	if o.DecisionBudget == 0 {
		o.DecisionBudget = 512
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 8
	}
	return o
}

// Stats counts the deterministic phase's work, exposed through
// atpg.Result, /metrics and cmd/benchjson.
type Stats struct {
	Targeted   int   // faults the engine attempted
	Found      int   // faults for which a validated test was produced
	Decisions  int64 // primary-input assignments committed
	Backtracks int64 // lane retreats and group pops
	Settles    int64 // bit-parallel group settles (×2 engines each)
}

// Add accumulates o into s (merging per-flow stats into a total).
func (s *Stats) Add(o Stats) {
	s.Targeted += o.Targeted
	s.Found += o.Found
	s.Decisions += o.Decisions
	s.Backtracks += o.Backtracks
	s.Settles += o.Settles
}

// Test is a generated synchronous test: one input pattern and the
// expected good-machine output response per cycle (output j at bit j),
// the same encoding as atpg.Test.
type Test struct {
	Patterns []uint64
	Expected []uint64
}

// searcher is the width-erased search core (one instantiation per
// lane width, dispatched once at construction).
type searcher interface {
	target(ctx context.Context, f faults.Fault) (Test, bool)
	stats() Stats
}

// Generator is a reusable deterministic test generator for one
// circuit.  It is not safe for concurrent use; construct one per
// goroutine (engines and scratch are per-instance).
type Generator struct {
	impl searcher
}

// New builds a Generator for the circuit.  It fails on circuits the
// packed-pattern encoding cannot drive (no inputs, or more than 64)
// and on lane widths the kernel family does not implement.
func New(c *netlist.Circuit, opts Options) (*Generator, error) {
	if c.NumInputs() == 0 {
		return nil, fmt.Errorf("podem: circuit %q has no primary inputs", c.Name)
	}
	if c.NumInputs() > 64 {
		return nil, fmt.Errorf("podem: circuit %q has %d primary inputs; packed patterns support at most 64", c.Name, c.NumInputs())
	}
	opts = opts.withDefaults()
	g := &Generator{}
	switch opts.Lanes {
	case lanevec.Lanes1:
		g.impl = newGen[lanevec.V1](c, opts)
	case lanevec.Lanes4:
		g.impl = newGen[lanevec.V4](c, opts)
	default:
		return nil, fmt.Errorf("podem: unsupported lane width %d (want 64 or 256)", opts.Lanes)
	}
	return g, nil
}

// Target runs the deterministic search for one fault.  On success the
// returned test is scalar-validated: every cycle settles the good
// machine fully definite and the last cycle shows a definite-opposite
// primary output under the fault.  ok is false when the fault is
// structurally unobservable, the budget is exhausted, or ctx is
// cancelled (checked at every decision boundary).
func (g *Generator) Target(ctx context.Context, f faults.Fault) (Test, bool) {
	return g.impl.target(ctx, f)
}

// Stats returns the cumulative search counters.
func (g *Generator) Stats() Stats { return g.impl.stats() }
