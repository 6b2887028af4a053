package core

import "repro/internal/netlist"

// ExploreRef exposes the reference exploration, with Explore's option
// defaults, to the external test package, whose differential tests
// drive the exported entry points (Explore, Build) against it.
func ExploreRef(c *netlist.Circuit, start uint64, opts Options) CycleResult {
	return exploreRef(c, start, opts.withDefaults(c))
}

// ExploreBudget is Explore, or ExploreRecorded when recorded is set,
// with the scratch storing at most budget successor entries for the
// depth DP, which re-derives the rest (succBudget in production).
func ExploreBudget(c *netlist.Circuit, start uint64, opts Options, budget int, recorded bool) (CycleResult, []uint64) {
	var rec []uint64
	if recorded {
		rec = make([]uint64, c.NumGates())
	}
	x := getScratch()
	defer putScratch(x)
	defer func(saved int) { x.budget = saved }(x.budget)
	x.budget = budget
	return x.result(x.explore(c, start, opts.withDefaults(c), rec)), rec
}
