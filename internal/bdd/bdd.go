// Package bdd is a from-scratch reduced ordered binary decision diagram
// engine, sufficient for the symbolic traversal techniques of Coudert,
// Berthet & Madre used by the paper (reachability, k-step relation
// composition, stable-state extraction).
//
// Nodes are hash-consed in a single manager; the variable order is the
// variable index (callers choose an interleaved order when encoding
// present/next/auxiliary state copies).  The engine implements ITE with
// memoisation, existential/universal quantification over cubes, the
// combined AndExists (relational product), variable renaming, model
// counting and model enumeration.  There is no garbage collection or
// dynamic reordering: the workloads in this repository stay small, and a
// configurable node limit guards against runaway growth.
package bdd

import (
	"fmt"
	"math"
	"sort"
)

// Ref is a reference to a BDD node (an index into the manager's arena).
type Ref uint32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

const terminalLevel = ^uint32(0)

type node struct {
	level  uint32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

type quantKey struct {
	op   uint8
	f, g Ref
	cube Ref
}

const (
	opExists uint8 = iota
	opForAll
	opAndExists
)

// Manager owns a universe of BDD nodes over a fixed set of variables.
type Manager struct {
	nvars    int
	nodes    []node
	unique   map[node]Ref
	ite      map[iteKey]Ref
	quant    map[quantKey]Ref
	maxNodes int
}

// New creates a manager with nvars variables (levels 0..nvars-1; lower
// level = closer to the root).
func New(nvars int) *Manager {
	m := &Manager{
		nvars:    nvars,
		unique:   make(map[node]Ref, 1024),
		ite:      make(map[iteKey]Ref, 1024),
		quant:    make(map[quantKey]Ref, 256),
		maxNodes: 16 << 20,
	}
	m.nodes = append(m.nodes,
		node{level: terminalLevel}, // False
		node{level: terminalLevel}, // True
	)
	return m
}

// SetMaxNodes bounds the arena; operations panic with ErrNodeLimit
// (via panic/recover in Protect) when exceeded.
func (m *Manager) SetMaxNodes(n int) { m.maxNodes = n }

// Size returns the number of live nodes in the arena (including the two
// terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// ErrNodeLimit is the panic value raised when the node limit is hit.
type ErrNodeLimit struct{ Limit int }

func (e ErrNodeLimit) Error() string {
	return fmt.Sprintf("bdd: node limit %d exceeded", e.Limit)
}

func (m *Manager) level(f Ref) uint32 { return m.nodes[f].level }
func (m *Manager) lo(f Ref) Ref       { return m.nodes[f].lo }
func (m *Manager) hi(f Ref) Ref       { return m.nodes[f].hi }

// mk returns the canonical node (level, lo, hi).
func (m *Manager) mk(level uint32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	n := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[n]; ok {
		return r
	}
	if len(m.nodes) >= m.maxNodes {
		panic(ErrNodeLimit{m.maxNodes})
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.unique[n] = r
	return r
}

// Var returns the function of variable v.
func (m *Manager) Var(v int) Ref {
	m.checkVar(v)
	return m.mk(uint32(v), False, True)
}

// NVar returns the complement of variable v.
func (m *Manager) NVar(v int) Ref {
	m.checkVar(v)
	return m.mk(uint32(v), True, False)
}

func (m *Manager) checkVar(v int) {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.nvars))
	}
}

// Lit returns Var(v) if pos, else NVar(v).
func (m *Manager) Lit(v int, pos bool) Ref {
	if pos {
		return m.Var(v)
	}
	return m.NVar(v)
}

// Ite computes if-then-else(f, g, h) = f·g + ¬f·h.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal shortcuts.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := iteKey{f, g, h}
	if r, ok := m.ite[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)
	r := m.mk(top, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.ite[key] = r
	return r
}

func (m *Manager) cofactor(f Ref, level uint32) (lo, hi Ref) {
	if m.level(f) == level {
		return m.lo(f), m.hi(f)
	}
	return f, f
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

// And returns f·g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f+g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Xor returns f⊕g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Xnor returns ¬(f⊕g), i.e. f≡g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.Ite(f, g, m.Not(g)) }

// Implies returns ¬f + g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Ite(f, g, True) }

// Diff returns f·¬g.
func (m *Manager) Diff(f, g Ref) Ref { return m.Ite(g, False, f) }

// AndN folds And over its arguments (True for none).
func (m *Manager) AndN(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.And(r, f)
	}
	return r
}

// Cube returns the conjunction of positive literals of vars (used to
// denote quantification sets).
func (m *Manager) Cube(vars []int) Ref {
	sorted := append([]int(nil), vars...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	r := True
	for _, v := range sorted {
		m.checkVar(v)
		r = m.mk(uint32(v), False, r)
	}
	return r
}

// Exists computes ∃vars.f where cube = Cube(vars).
func (m *Manager) Exists(f, cube Ref) Ref {
	if f == False || f == True || cube == True {
		return f
	}
	key := quantKey{op: opExists, f: f, cube: cube}
	if r, ok := m.quant[key]; ok {
		return r
	}
	// Skip quantified variables above f's top.
	c := cube
	for c != True && m.level(c) < m.level(f) {
		c = m.hi(c)
	}
	var r Ref
	if c == True {
		r = f
	} else if m.level(f) == m.level(c) {
		r = m.Or(m.Exists(m.lo(f), m.hi(c)), m.Exists(m.hi(f), m.hi(c)))
	} else {
		r = m.mk(m.level(f), m.Exists(m.lo(f), c), m.Exists(m.hi(f), c))
	}
	m.quant[key] = r
	return r
}

// ForAll computes ∀vars.f where cube = Cube(vars).
func (m *Manager) ForAll(f, cube Ref) Ref {
	return m.Not(m.Exists(m.Not(f), cube))
}

// AndExists computes ∃cube.(f·g) without building f·g (the relational
// product at the heart of symbolic image computation).
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	switch {
	case f == False || g == False:
		return False
	case cube == True:
		return m.And(f, g)
	case f == True && g == True:
		return True
	}
	key := quantKey{op: opAndExists, f: f, g: g, cube: cube}
	if r, ok := m.quant[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	c := cube
	for c != True && m.level(c) < top {
		c = m.hi(c)
	}
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	var r Ref
	if c != True && m.level(c) == top {
		r = m.Or(m.AndExists(f0, g0, m.hi(c)), m.AndExists(f1, g1, m.hi(c)))
	} else {
		r = m.mk(top, m.AndExists(f0, g0, c), m.AndExists(f1, g1, c))
	}
	m.quant[key] = r
	return r
}

// Rename substitutes variables according to perm (old var → new var).
// Variables absent from perm are unchanged.  The target variables must
// not overlap f's remaining support in a way that merges levels; the
// rebuild uses ITE, so any ordering mismatch is handled correctly (at
// some cost).  Each call uses a private memo table.
func (m *Manager) Rename(f Ref, perm map[int]int) Ref {
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(f Ref) Ref {
		if f == False || f == True {
			return f
		}
		if r, ok := memo[f]; ok {
			return r
		}
		v := int(m.level(f))
		if nv, ok := perm[v]; ok {
			v = nv
		}
		r := m.Ite(m.Var(v), rec(m.hi(f)), rec(m.lo(f)))
		memo[f] = r
		return r
	}
	return rec(f)
}

// Restrict cofactors f with respect to a literal assignment: vals maps
// variables to boolean values.
func (m *Manager) Restrict(f Ref, vals map[int]bool) Ref {
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(f Ref) Ref {
		if f == False || f == True {
			return f
		}
		if r, ok := memo[f]; ok {
			return r
		}
		v := int(m.level(f))
		var r Ref
		if b, ok := vals[v]; ok {
			if b {
				r = rec(m.hi(f))
			} else {
				r = rec(m.lo(f))
			}
		} else {
			r = m.mk(m.level(f), rec(m.lo(f)), rec(m.hi(f)))
		}
		memo[f] = r
		return r
	}
	return rec(f)
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Ref, assign func(v int) bool) bool {
	for f != False && f != True {
		if assign(int(m.level(f))) {
			f = m.hi(f)
		} else {
			f = m.lo(f)
		}
	}
	return f == True
}

// Support returns the variables f depends on, ascending.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	vars := make(map[int]bool)
	var rec func(Ref)
	rec = func(f Ref) {
		if f == False || f == True || seen[f] {
			return
		}
		seen[f] = true
		vars[int(m.level(f))] = true
		rec(m.lo(f))
		rec(m.hi(f))
	}
	rec(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// SatCount counts the satisfying assignments of f over exactly the given
// variable set, which must cover f's support.
func (m *Manager) SatCount(f Ref, vars []int) float64 {
	sorted := append([]int(nil), vars...)
	sort.Ints(sorted)
	pos := make(map[uint32]int, len(sorted))
	for i, v := range sorted {
		pos[uint32(v)] = i
	}
	type key struct {
		f   Ref
		idx int
	}
	memo := make(map[key]float64)
	var rec func(f Ref, idx int) float64
	rec = func(f Ref, idx int) float64 {
		if f == False {
			return 0
		}
		if f == True {
			return math.Exp2(float64(len(sorted) - idx))
		}
		k := key{f, idx}
		if r, ok := memo[k]; ok {
			return r
		}
		j, ok := pos[m.level(f)]
		if !ok || j < idx {
			panic(fmt.Sprintf("bdd: SatCount variable set does not cover support var %d", m.level(f)))
		}
		r := math.Exp2(float64(j-idx)) * (rec(m.lo(f), j+1) + rec(m.hi(f), j+1))
		memo[k] = r
		return r
	}
	return rec(f, 0)
}

// AllSat enumerates every complete satisfying assignment of f over the
// given variable set (which must cover f's support and have ≤64 vars),
// calling fn with a bitmask where bit i is the value of vars[i].  fn
// returning false stops the enumeration early; AllSat reports whether
// the enumeration ran to completion.
func (m *Manager) AllSat(f Ref, vars []int, fn func(bits uint64) bool) bool {
	if len(vars) > 64 {
		panic("bdd: AllSat over more than 64 variables")
	}
	sorted := append([]int(nil), vars...)
	sort.Ints(sorted)
	pos := make(map[uint32]int, len(sorted))
	for i, v := range sorted {
		pos[uint32(v)] = i
	}
	var rec func(f Ref, idx int, bits uint64) bool
	rec = func(f Ref, idx int, bits uint64) bool {
		if f == False {
			return true
		}
		if idx == len(sorted) {
			if f != True {
				panic("bdd: AllSat variable set does not cover support")
			}
			return fn(bits)
		}
		j := len(sorted) // position of f's top var, or end for terminal True
		if f != True {
			var ok bool
			j, ok = pos[m.level(f)]
			if !ok || j < idx {
				panic("bdd: AllSat variable set does not cover support")
			}
		}
		if j > idx {
			// Don't-care on vars[idx]: expand both values.
			return rec(f, idx+1, bits) && rec(f, idx+1, bits|1<<uint(idx))
		}
		return rec(m.lo(f), idx+1, bits) && rec(m.hi(f), idx+1, bits|1<<uint(idx))
	}
	return rec(f, 0, 0)
}

// AnySat returns one satisfying assignment of f over the given variable
// set (which must cover f's support and have ≤64 vars), with bit i of
// the result holding vars[i]'s value.  Don't-care variables are set to
// 0.  ok is false iff f is unsatisfiable.
func (m *Manager) AnySat(f Ref, vars []int) (bits uint64, ok bool) {
	if len(vars) > 64 {
		panic("bdd: AnySat over more than 64 variables")
	}
	if f == False {
		return 0, false
	}
	pos := make(map[uint32]int, len(vars))
	for i, v := range vars {
		pos[uint32(v)] = i
	}
	for f != True {
		j, covered := pos[m.level(f)]
		if !covered {
			panic("bdd: AnySat variable set does not cover support")
		}
		if m.lo(f) != False {
			f = m.lo(f)
		} else {
			bits |= 1 << uint(j)
			f = m.hi(f)
		}
	}
	return bits, true
}

// NodeCount returns the number of distinct nodes reachable from f
// (excluding terminals).
func (m *Manager) NodeCount(f Ref) int {
	seen := make(map[Ref]bool)
	var rec func(Ref)
	rec = func(f Ref) {
		if f == False || f == True || seen[f] {
			return
		}
		seen[f] = true
		rec(m.lo(f))
		rec(m.hi(f))
	}
	rec(f)
	return len(seen)
}
