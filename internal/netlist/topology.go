package netlist

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Topology is the persistent structural index of a circuit, computed
// once per Circuit (lazily, on first use) and shared by every engine
// that simulates it.  It is what makes event-driven selective
// re-simulation cheap: the reader adjacency says which gates must be
// re-evaluated when a signal changes, the levelization orders those
// evaluations so most events are processed exactly once per settling
// phase, the fanout-cone bitsets bound the set of signals a fault can
// ever disturb relative to the fault-free circuit, and the observable
// set says which signals reach a primary output at all.
//
// Signal sets are multi-word bitsets of Words uint64 words each
// (signal s at bit s%64 of word s/64), sized from Circuit.StateWords —
// one word for ≤64-signal circuits, more for larger ones.  Gate sets
// are GateWords words with gate gi at bit gi%64 of word gi/64.
type Topology struct {
	// NumInputs is the circuit's primary-input count m; gate gi drives
	// signal m+gi, so a signal bitset shifted right by m is the
	// corresponding gate bitset.
	NumInputs int

	// Words is the signal-bitset width in uint64 words (the stride of
	// Cone); GateWords is the gate-bitset width.
	Words     int
	GateWords int

	// Readers lists, per signal, the indices of the gates that must be
	// re-evaluated when the signal changes: the gates reading it as a
	// fanin plus — unlike Circuit.Fanouts — the driving gate itself when
	// it is self-dependent (a C gate re-reads its own output, so an
	// output change re-excites it).
	Readers [][]int

	// Level assigns each gate an event-scheduling level: 1 + the
	// maximum level of its fanin drivers along a spanning DFS, with
	// feedback (back) edges contributing nothing.  Levels only order
	// evaluations — correctness never depends on them (the settling
	// phases are confluent) — but processing events in level order
	// makes a single pass suffice on feedback-free regions.
	Level []int

	// MaxLevel is the largest value in Level.
	MaxLevel int

	// Cone holds, per signal, the bitset of signals in its fanout cone:
	// every signal reachable from it through the reader adjacency,
	// including itself.  A fault whose faulty gate drives signal s can
	// only ever make the circuit differ from the fault-free machine on
	// the signals of ConeOf(s); everything outside the cone provably
	// tracks the good machine bit for bit, which is what lets a
	// fault simulation re-evaluate cone gates only.  The storage is
	// flat: signal s occupies Cone[s*Words : (s+1)*Words].
	Cone []uint64

	// observable marks the signals whose fanout cone holds a primary
	// output (a Words-wide signal bitset); see Observable.
	observable []uint64
}

// Observable reports whether some primary output lies in signal s's
// fanout cone.  When none does, nothing that happens at s can ever
// reach an output: every output is driven from outside the cone and so
// tracks the fault-free circuit under every delay assignment.
func (t *Topology) Observable(s SigID) bool {
	return t.observable[int(s)>>6]>>uint(int(s)&63)&1 == 1
}

// ConeOf returns signal s's fanout-cone bitset (Words words; a view
// into the shared index — callers must not modify it).
func (t *Topology) ConeOf(s SigID) []uint64 {
	return t.Cone[int(s)*t.Words : (int(s)+1)*t.Words]
}

// EachSet calls fn for every signal in the word-level intersection
// a ∧ b ∧ ¬not.  b and not may be nil (all-ones and all-zeros
// respectively); operands shorter than a contribute zero words.  This
// is the iteration behind the event engine's trace-swap and seed
// loops: the set algebra happens on whole words, and only surviving
// bits pay a callback.
func EachSet(a, b, not []uint64, fn func(SigID)) {
	for w, v := range a {
		if b != nil {
			if w < len(b) {
				v &= b[w]
			} else {
				v = 0
			}
		}
		if not != nil && w < len(not) {
			v &^= not[w]
		}
		for v != 0 {
			fn(SigID(w<<6 + bits.TrailingZeros64(v)))
			v &= v - 1
		}
	}
}

// SupportOf computes the read support of a fanout cone: the cone's
// signals plus every fanin of the gates driving them.  A cone-limited
// fault machine needs to maintain exactly these signals — no admitted
// gate ever reads anything else — so loading and swapping can skip
// the rest of the circuit.  The result is written into dst (grown as
// needed, Words words) and returned.
func (t *Topology) SupportOf(c *Circuit, cone, dst []uint64) []uint64 {
	if cap(dst) < t.Words {
		dst = make([]uint64, t.Words)
	} else {
		dst = dst[:t.Words]
	}
	copy(dst, cone)
	for w := len(cone); w < t.Words; w++ {
		dst[w] = 0
	}
	EachSet(cone, nil, nil, func(s SigID) {
		gi := int(s) - t.NumInputs
		if gi < 0 {
			return // primary input: no driving gate
		}
		for _, f := range c.Gates[gi].Fanin {
			dst[int(f)>>6] |= 1 << uint(int(f)&63)
		}
	})
	return dst
}

// GateMaskW converts a signal bitset (such as a ConeOf entry) into the
// gate bitset of the gates driving those signals: a cross-word right
// shift by NumInputs.  The result is written into dst (grown as
// needed, GateWords words) and returned.
func (t *Topology) GateMaskW(signals, dst []uint64) []uint64 {
	if cap(dst) < t.GateWords {
		dst = make([]uint64, t.GateWords)
	} else {
		dst = dst[:t.GateWords]
	}
	wo := t.NumInputs >> 6
	sh := uint(t.NumInputs & 63)
	for w := 0; w < t.GateWords; w++ {
		var v uint64
		if w+wo < len(signals) {
			v = signals[w+wo] >> sh
			if sh != 0 && w+wo+1 < len(signals) {
				v |= signals[w+wo+1] << (64 - sh)
			}
		}
		dst[w] = v
	}
	return dst
}

// Topology returns the circuit's structural index, computing it on
// first use.  The result is immutable and safe for concurrent use —
// the sync.Once publishes the build to every goroutine, so concurrent
// Simulators over one Circuit share a single index; Clone copies share
// nothing (the copy rebuilds its own index).
func (c *Circuit) Topology() *Topology {
	c.topoOnce.Do(func() {
		c.topo = buildTopology(c)
		topologyBuilds.Add(1)
	})
	return c.topo
}

// topologyBuilds counts Topology constructions process-wide.
var topologyBuilds atomic.Int64

// TopologyBuilds returns the number of Topology indexes built since
// process start — the cache-effectiveness metric of the per-Circuit
// topology store (a resident service interning circuits should see it
// grow with distinct circuits, not with requests).
func TopologyBuilds() int64 { return topologyBuilds.Load() }

// topoState is the lazily-built Topology cache embedded in Circuit.
type topoState struct {
	topoOnce sync.Once
	topo     *Topology
}

func buildTopology(c *Circuit) *Topology {
	m := len(c.Inputs)
	n := c.NumSignals()
	W := c.StateWords()
	t := &Topology{
		NumInputs: m,
		Words:     W,
		GateWords: wordsFor(c.NumGates()),
		Readers:   make([][]int, n),
		Level:     make([]int, c.NumGates()),
		Cone:      make([]uint64, n*W),

		observable: make([]uint64, W),
	}
	for s := 0; s < n; s++ {
		t.Readers[s] = append(t.Readers[s], c.fanouts[s]...)
	}
	for gi := range c.Gates {
		if c.Gates[gi].Kind.SelfDependent() {
			out := c.Gates[gi].Out
			t.Readers[out] = append(t.Readers[out], gi)
		}
	}

	// Levelization: DFS over the fanin graph, memoised; an edge into a
	// gate currently on the stack is a feedback edge and contributes
	// level 0, which breaks every cycle deterministically.
	const (
		unvisited = iota
		onStack
		done
	)
	state := make([]int, c.NumGates())
	var visit func(gi int) int
	visit = func(gi int) int {
		switch state[gi] {
		case done:
			return t.Level[gi]
		case onStack:
			return -1 // feedback edge
		}
		state[gi] = onStack
		lvl := 0
		for _, f := range c.Gates[gi].Fanin {
			d := c.GateOf(f)
			if d < 0 {
				continue // rail: level 0 source
			}
			if dl := visit(d); dl >= lvl {
				lvl = dl + 1
			}
		}
		state[gi] = done
		t.Level[gi] = lvl
		if lvl > t.MaxLevel {
			t.MaxLevel = lvl
		}
		return lvl
	}
	for gi := range c.Gates {
		visit(gi)
	}

	// Fanout cones: the transitive closure of signal → reader-gate
	// output, iterated to a fixpoint so feedback loops close properly.
	// With W words per signal this is at worst a few thousand word
	// operations per sweep, once per circuit.
	for s := 0; s < n; s++ {
		t.Cone[s*W+s>>6] |= 1 << uint(s&63)
	}
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			cs := t.Cone[s*W : (s+1)*W]
			for _, gi := range t.Readers[s] {
				o := int(c.Gates[gi].Out)
				co := t.Cone[o*W : (o+1)*W]
				for w := 0; w < W; w++ {
					if nw := cs[w] | co[w]; nw != cs[w] {
						cs[w] = nw
						changed = true
					}
				}
			}
		}
	}

	outs := make([]uint64, W)
	for _, o := range c.Outputs {
		outs[int(o)>>6] |= 1 << uint(int(o)&63)
	}
	for s := 0; s < n; s++ {
		for w, cw := range t.Cone[s*W : (s+1)*W] {
			if cw&outs[w] != 0 {
				t.observable[s>>6] |= 1 << uint(s&63)
				break
			}
		}
	}
	return t
}
