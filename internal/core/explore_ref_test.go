package core

import (
	"math/bits"
	"sort"

	"repro/internal/netlist"
)

// exploreRef is the reference the production explore is checked
// against: the settling-graph exploration as first written, which
// re-evaluates every gate for every discovered state
// (Circuit.ExcitedGates), indexes states in a map and keeps one
// successor slice per state.  explore must return a deeply equal
// CycleResult for every input.
func exploreRef(c *netlist.Circuit, start uint64, opts Options) CycleResult {

	// Settling graph: nodes discovered by BFS, stable nodes are sinks.
	ids := map[uint64]int{start: 0}
	states := []uint64{start}
	var succs [][]int32
	isStable := []bool{}
	queue := []int{0}
	truncated := false
	var excited []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		st := states[id]
		for len(isStable) <= id {
			isStable = append(isStable, false)
			succs = append(succs, nil)
		}
		excited = c.ExcitedGates(st, excited[:0])
		if len(excited) == 0 {
			isStable[id] = true
			continue
		}
		// Partial-order reduction: if an observation-only gate (zero
		// fanout, e.g. a pure output tap) is excited, fire it alone.
		// Such firings commute with every other firing, so the set of
		// reachable stable states and the cycle structure are preserved
		// while the interleaving hypercube of concurrent taps collapses
		// to a single order.  (Depth counts on the reduced graph can be
		// marginally shorter than the true worst case when a tap could
		// glitch; the default k is far above either bound.)
		if !opts.DisablePOR {
			for _, gi := range excited {
				if c.ObservationOnly(gi) {
					excited[0] = gi
					excited = excited[:1]
					break
				}
			}
		}
		for _, gi := range excited {
			nx := c.Fire(gi, st)
			nid, ok := ids[nx]
			if !ok {
				if len(states) >= opts.MaxStatesPerPattern {
					truncated = true
					continue
				}
				nid = len(states)
				ids[nx] = nid
				states = append(states, nx)
				queue = append(queue, nid)
			}
			succs[id] = append(succs[id], int32(nid))
		}
	}
	for len(isStable) < len(states) {
		isStable = append(isStable, false)
		succs = append(succs, nil)
	}
	res := CycleResult{GraphStates: len(states)}
	if truncated {
		res.Truncated = true
		return res
	}

	// Depth DP: reach[d+1] = post(reach[d]), stable nodes self-loop.
	nw := (len(states) + 63) / 64
	cur := make([]uint64, nw)
	next := make([]uint64, nw)
	cur[0] = 1 // {start}
	depth := 0
	for ; depth < opts.K; depth++ {
		for i := range next {
			next[i] = 0
		}
		for w := 0; w < nw; w++ {
			rem := cur[w]
			for rem != 0 {
				b := bits.TrailingZeros64(rem)
				rem &= rem - 1
				id := w*64 + b
				if isStable[id] {
					next[w] |= 1 << uint(b)
					continue
				}
				for _, s := range succs[id] {
					next[s/64] |= 1 << uint(s%64)
				}
			}
		}
		same := true
		for i := range next {
			if next[i] != cur[i] {
				same = false
				break
			}
		}
		cur, next = next, cur
		if same {
			break
		}
	}
	res.SettleDepth = depth

	// Inspect reach[k].
	for w := 0; w < nw; w++ {
		rem := cur[w]
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &= rem - 1
			id := w*64 + b
			res.ReachK = append(res.ReachK, states[id])
			if isStable[id] {
				res.StableSuccs = append(res.StableSuccs, states[id])
			} else {
				res.UnstableAtK = true
			}
		}
	}
	sort.Slice(res.ReachK, func(i, j int) bool { return res.ReachK[i] < res.ReachK[j] })
	sort.Slice(res.StableSuccs, func(i, j int) bool { return res.StableSuccs[i] < res.StableSuccs[j] })
	return res
}
