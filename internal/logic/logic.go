// Package logic provides the ternary (three-valued) logic domain used by
// the asynchronous-circuit simulators.
//
// The three values are 0, 1 and Φ (phi, written X in text form), where Φ
// stands for "uncertain: may be 0 or may be 1".  The domain forms the
// standard information lattice
//
//	  Φ
//	 / \
//	0   1
//
// with 0 and 1 incomparable and Φ the top (least informative) element.
// Eichelberger's ternary simulation (sim package) computes least upper
// bounds in this lattice.
package logic

import (
	"fmt"
	"strings"
)

// V is a ternary logic value.
type V uint8

// The three ternary values. The numeric encoding is chosen so that
// Zero and One match their boolean meaning and X is distinct.
const (
	Zero V = 0
	One  V = 1
	X    V = 2 // Φ in the paper: unknown / unstable / race
)

// FromBool converts a boolean to a definite ternary value.
func FromBool(b bool) V {
	if b {
		return One
	}
	return Zero
}

// IsDefinite reports whether v is 0 or 1 (not Φ).
func (v V) IsDefinite() bool { return v == Zero || v == One }

// Bool returns the boolean meaning of a definite value. It panics on Φ;
// callers must check IsDefinite first.
func (v V) Bool() bool {
	switch v {
	case Zero:
		return false
	case One:
		return true
	}
	panic("logic: Bool() on X")
}

// Not returns the ternary complement: ¬0=1, ¬1=0, ¬Φ=Φ.
func (v V) Not() V {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// Lub returns the least upper bound of a and b in the information lattice:
// equal values map to themselves, differing values to Φ.
func Lub(a, b V) V {
	if a == b {
		return a
	}
	return X
}

// Leq reports whether a ⊑ b in the information order (a below-or-equal b):
// every value is below Φ and below itself.
func Leq(a, b V) bool { return a == b || b == X }

// Compatible reports whether the two values can denote the same final
// binary value: definite values are compatible iff equal; Φ is compatible
// with everything.
func Compatible(a, b V) bool { return a == b || a == X || b == X }

// And returns the exact ternary conjunction (Kleene strong AND).
func And(a, b V) V {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

// Or returns the exact ternary disjunction (Kleene strong OR).
func Or(a, b V) V {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

// Xor returns the exact ternary exclusive-or.
func Xor(a, b V) V {
	if !a.IsDefinite() || !b.IsDefinite() {
		return X
	}
	if a != b {
		return One
	}
	return Zero
}

// String renders the value as "0", "1" or "X".
func (v V) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "X"
	}
	return fmt.Sprintf("V(%d)", uint8(v))
}

// ParseV parses a single value character: '0', '1', 'X', 'x' or 'Φ'.
func ParseV(r rune) (V, error) {
	switch r {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'X', 'x', '*', 'Φ':
		return X, nil
	}
	return X, fmt.Errorf("logic: invalid ternary digit %q", r)
}

// Vec is a vector of ternary values, indexed by signal.
type Vec []V

// Clone returns a copy of the vector.
func (x Vec) Clone() Vec {
	y := make(Vec, len(x))
	copy(y, x)
	return y
}

// AllDefinite reports whether no element is Φ.
func (x Vec) AllDefinite() bool {
	for _, v := range x {
		if !v.IsDefinite() {
			return false
		}
	}
	return true
}

// CountX returns the number of Φ elements.
func (x Vec) CountX() int {
	n := 0
	for _, v := range x {
		if v == X {
			n++
		}
	}
	return n
}

// Equal reports element-wise equality.
func (x Vec) Equal(y Vec) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Lub sets x to the element-wise least upper bound of x and y and reports
// whether any element changed.
func (x Vec) Lub(y Vec) bool {
	changed := false
	for i := range x {
		n := Lub(x[i], y[i])
		if n != x[i] {
			x[i] = n
			changed = true
		}
	}
	return changed
}

// String renders the vector as a string of 0/1/X digits.
func (x Vec) String() string {
	var b strings.Builder
	b.Grow(len(x))
	for _, v := range x {
		b.WriteString(v.String())
	}
	return b.String()
}

// ParseVec parses a digit string like "01X10" into a vector.
func ParseVec(s string) (Vec, error) {
	out := make(Vec, 0, len(s))
	for _, r := range s {
		v, err := ParseV(r)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Key returns a compact comparable key for the vector, usable as a map
// key when memoizing ternary states (two bits per element).
func (x Vec) Key() string {
	nb := (len(x)*2 + 7) / 8
	buf := make([]byte, nb)
	for i, v := range x {
		buf[i/4] |= byte(v) << uint((i%4)*2)
	}
	return string(buf)
}

// FromBits fills a vector of length n from the low n bits of the packed
// word, bit i becoming element i.
func FromBits(bits uint64, n int) Vec {
	x := make(Vec, n)
	for i := 0; i < n; i++ {
		if bits>>uint(i)&1 == 1 {
			x[i] = One
		}
	}
	return x
}

// Bits packs a fully definite vector into a uint64 (element i at bit i).
// It panics if the vector has Φ elements or is longer than 64.
func (x Vec) Bits() uint64 {
	if len(x) > 64 {
		panic("logic: Bits() on vector longer than 64")
	}
	var w uint64
	for i, v := range x {
		switch v {
		case One:
			w |= 1 << uint(i)
		case X:
			panic("logic: Bits() on vector containing X")
		}
	}
	return w
}
