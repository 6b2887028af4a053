package netlist

import (
	"strings"

	"repro/internal/logic"
)

// Multi-word packed state.  A circuit with more than WordBits signals
// packs its state into a little-endian word vector: signal s lives at
// bit s%WordBits of word s/WordBits.  StateWords reports how many
// words a circuit needs; every multi-word engine sizes its signal and
// gate bitsets from it.  Circuits that fit one word keep the plain
// uint64 entry points (InitState, EvalBinary, Fire, ...) as the fast
// path; the *W variants here are their exact generalisation — on a
// one-word circuit the two families agree bit for bit, which the
// engine parity tests pin down.
//
// Primary inputs and primary outputs remain capped at WordBits each
// (validateStructure enforces it), so pattern and response vectors stay
// single uint64 words at any circuit size: only the state/cone/gate-set
// dimension widens.

const (
	// WordBits is the packed-state word width in bits.
	WordBits = 64

	// MaxStateWords caps the per-circuit state-vector width.  It exists
	// only to keep the validation limit an explicit engine capability
	// rather than "whatever fits in memory"; 64 words = 4096 signals is
	// two orders of magnitude past the paper's Table-1 circuits.
	MaxStateWords = 64

	// MaxSignals is the largest signal count the packed-state engines
	// accept, derived from the word capacity above.
	MaxSignals = WordBits * MaxStateWords
)

// wordsFor returns the number of state words needed for n signals.
func wordsFor(n int) int {
	w := (n + WordBits - 1) / WordBits
	if w < 1 {
		w = 1
	}
	return w
}

// StateWords returns the width W of the circuit's packed state vector
// in 64-bit words.  All multi-word engines and Topology size their
// signal bitsets with this value.
func (c *Circuit) StateWords() int {
	w := wordsFor(c.NumSignals())
	if w < c.minWords {
		w = c.minWords
	}
	return w
}

// SetMinStateWords forces the circuit to report at least w state words
// even when its signals fit fewer.  It is a test hook: parity suites
// use it to push a ≤64-signal circuit through the multi-word engine
// paths and compare against the single-word ones bit for bit.  It must
// be called before the circuit's Topology or any engine is built.
func (c *Circuit) SetMinStateWords(w int) { c.minWords = w }

// InitWords returns the packed initial state as a fresh word vector of
// StateWords words.  It panics if Init contains X values; Validate
// rejects such circuits.
func (c *Circuit) InitWords() []uint64 {
	st := make([]uint64, c.StateWords())
	for s, v := range c.Init {
		switch v {
		case logic.One:
			st[s>>6] |= 1 << uint(s&63)
		case logic.X:
			panic("netlist: InitWords on init state containing X")
		}
	}
	return st
}

// EvalBinaryW is EvalBinary over a multi-word packed state.
func (c *Circuit) EvalBinaryW(gi int, state []uint64) bool {
	g := &c.Gates[gi]
	idx := 0
	for j, f := range g.Fanin {
		if state[f>>6]>>uint(f&63)&1 == 1 {
			idx |= 1 << uint(j)
		}
	}
	if g.Kind.SelfDependent() {
		o := g.Out
		if state[o>>6]>>uint(o&63)&1 == 1 {
			idx |= 1 << uint(len(g.Fanin))
		}
	}
	return g.Tbl[idx] == logic.One
}

// ExcitedW is Excited over a multi-word packed state.
func (c *Circuit) ExcitedW(gi int, state []uint64) bool {
	o := c.Gates[gi].Out
	cur := state[o>>6]>>uint(o&63)&1 == 1
	return c.EvalBinaryW(gi, state) != cur
}

// ExcitedGatesW is ExcitedGates over a multi-word packed state.  The
// enumeration order matches ExcitedGates exactly (gate index order), so
// randomised settlers draw identical sequences on either path.
func (c *Circuit) ExcitedGatesW(state []uint64, dst []int) []int {
	for gi := range c.Gates {
		if c.ExcitedW(gi, state) {
			dst = append(dst, gi)
		}
	}
	return dst
}

// StableW is Stable over a multi-word packed state.
func (c *Circuit) StableW(state []uint64) bool {
	for gi := range c.Gates {
		if c.ExcitedW(gi, state) {
			return false
		}
	}
	return true
}

// FireW toggles the output of gate gi in place (the multi-word Fire).
func (c *Circuit) FireW(gi int, state []uint64) {
	o := c.Gates[gi].Out
	state[o>>6] ^= 1 << uint(o&63)
}

// InputBitsW extracts the rail values (λ_P) from a multi-word state.
// Inputs are capped at WordBits, so the rails always sit in word 0.
func (c *Circuit) InputBitsW(state []uint64) uint64 {
	return state[0] & (1<<uint(len(c.Inputs)) - 1)
}

// WithInputBitsW replaces the rails of a multi-word state with pattern
// in place.
func (c *Circuit) WithInputBitsW(state []uint64, pattern uint64) {
	m := uint(len(c.Inputs))
	state[0] = state[0]&^(1<<m-1) | pattern&(1<<m-1)
}

// OutputBitsW extracts the primary-output values from a multi-word
// state, output j at bit j (outputs are capped at WordBits).
func (c *Circuit) OutputBitsW(state []uint64) uint64 {
	var w uint64
	for j, s := range c.Outputs {
		if state[s>>6]>>uint(s&63)&1 == 1 {
			w |= 1 << uint(j)
		}
	}
	return w
}

// FormatStateW renders a multi-word packed state as a digit string in
// signal order (the multi-word FormatState).
func (c *Circuit) FormatStateW(state []uint64) string {
	var b strings.Builder
	n := c.NumSignals()
	b.Grow(n)
	for s := 0; s < n; s++ {
		if state[s>>6]>>uint(s&63)&1 == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// VecFromWords fills a ternary vector of length NumSignals from a
// multi-word packed state (the multi-word logic.FromBits).
func (c *Circuit) VecFromWords(state []uint64) logic.Vec {
	n := c.NumSignals()
	x := make(logic.Vec, n)
	for s := 0; s < n; s++ {
		if state[s>>6]>>uint(s&63)&1 == 1 {
			x[s] = logic.One
		}
	}
	return x
}
