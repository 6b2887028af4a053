package core

import "repro/internal/netlist"

// ExploreRef exposes the reference exploration, with Explore's option
// defaults, to the external test package, whose differential tests
// drive the exported entry points (Explore, Build) against it.
func ExploreRef(c *netlist.Circuit, start uint64, opts Options) CycleResult {
	return exploreRef(c, start, opts.withDefaults(c))
}
