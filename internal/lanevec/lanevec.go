// Package lanevec is the single bit-parallel ternary sweep core behind
// every fault-simulation engine in the repository.
//
// A lane vector packs one bit per simulated lane into a small fixed-size
// array of machine words: V1 carries 64 lanes, V4 256.  Each
// signal of a circuit is encoded as two lane vectors — the "may be 1"
// and "may be 0" possibility words of the ternary domain (both set
// encodes Φ) — and the Eichelberger A/B Jacobi sweeps operate on whole
// vectors, so every gate evaluation answers all lanes at once.
//
// The package exposes exactly one settle/evalGate implementation,
// generic over the vector width, in one orientation: each lane carries
// a different input sequence (fsim's test sequences) and one fault,
// selected by Engine.Inject, is applied to every lane through the
// override masks.
//
// The sweep semantics live in exactly one place: the template in
// sweepgen.go.  The hot kernels (sweep_gen.go) are generated from it —
// one per concrete width, fully unrolled — because Go's generics
// dispatch method calls on type parameters through runtime
// dictionaries without inlining, which measured ~2.5× slower on the
// 64-lane sweep; the generated kernels keep the hot loop free of any
// per-gate call overhead (BenchmarkFaultSimEngines holds the 64-lane
// instantiation to the pre-unification throughput), and
// TestGeneratedSweepInSync pins the generated code to the template so
// the widths cannot drift apart.
package lanevec

import "math/bits"

// V1 is a 64-lane vector: one machine word.
type V1 [1]uint64

// V4 is a 256-lane vector: four machine words.
type V4 [4]uint64

// Widths supported by the engine, in lanes.
const (
	Lanes1 = 64  // lanes of a V1
	Lanes4 = 256 // lanes of a V4
)

// Vec is the constraint shared by all lane-vector widths.  It is a
// closed union of the concrete array types plus the bitwise operations
// the sweep core needs; the self-referential form (V Vec[V]) lets the
// methods keep their concrete signatures, which is what allows the
// compiler to stencil and inline them per width.
type Vec[V any] interface {
	V1 | V4

	// And returns the lanewise conjunction v & o.
	And(o V) V
	// Or returns the lanewise disjunction v | o.
	Or(o V) V
	// AndNot returns v &^ o.
	AndNot(o V) V
	// Xor returns the lanewise difference v ^ o.
	Xor(o V) V
	// IsZero reports whether no lane bit is set.
	IsZero() bool
	// Eq reports lanewise equality with o.
	Eq(o V) bool
	// WithBit returns v with lane l's bit set.
	WithBit(l int) V
	// Has reports whether lane l's bit is set.
	Has(l int) bool
	// FirstN returns the mask of the first n lanes (the receiver is
	// ignored; the method doubles as a constructor on the zero value).
	FirstN(n int) V
	// TrailingZeros returns the index of the lowest set lane, or the
	// vector's lane capacity if the vector is zero.
	TrailingZeros() int
	// OnesCount returns the number of set lanes.
	OnesCount() int
	// Size returns the lane capacity (64 × words).
	Size() int
	// Words returns the underlying words, lane 0 in bit 0 of word 0.
	Words() []uint64
}

// And returns v & o.
func (v V1) And(o V1) V1 { return V1{v[0] & o[0]} }

// Or returns v | o.
func (v V1) Or(o V1) V1 { return V1{v[0] | o[0]} }

// AndNot returns v &^ o.
func (v V1) AndNot(o V1) V1 { return V1{v[0] &^ o[0]} }

// Xor returns v ^ o.
func (v V1) Xor(o V1) V1 { return V1{v[0] ^ o[0]} }

// IsZero reports whether no lane bit is set.
func (v V1) IsZero() bool { return v[0] == 0 }

// Eq reports lanewise equality.
func (v V1) Eq(o V1) bool { return v[0] == o[0] }

// WithBit returns v with lane l's bit set.
func (v V1) WithBit(l int) V1 { return V1{v[0] | 1<<uint(l)} }

// Has reports whether lane l's bit is set.
func (v V1) Has(l int) bool { return v[0]>>uint(l)&1 == 1 }

// FirstN returns the mask of the first n lanes.
func (V1) FirstN(n int) V1 {
	if n >= 64 {
		return V1{^uint64(0)}
	}
	return V1{1<<uint(n) - 1}
}

// TrailingZeros returns the lowest set lane, or 64 when zero.
func (v V1) TrailingZeros() int { return bits.TrailingZeros64(v[0]) }

// OnesCount returns the number of set lanes.
func (v V1) OnesCount() int { return bits.OnesCount64(v[0]) }

// Size returns 64.
func (V1) Size() int { return 64 }

// Words returns the underlying words.
func (v V1) Words() []uint64 { return []uint64{v[0]} }

// And returns v & o.
func (v V4) And(o V4) V4 {
	return V4{v[0] & o[0], v[1] & o[1], v[2] & o[2], v[3] & o[3]}
}

// Or returns v | o.
func (v V4) Or(o V4) V4 {
	return V4{v[0] | o[0], v[1] | o[1], v[2] | o[2], v[3] | o[3]}
}

// AndNot returns v &^ o.
func (v V4) AndNot(o V4) V4 {
	return V4{v[0] &^ o[0], v[1] &^ o[1], v[2] &^ o[2], v[3] &^ o[3]}
}

// Xor returns v ^ o.
func (v V4) Xor(o V4) V4 {
	return V4{v[0] ^ o[0], v[1] ^ o[1], v[2] ^ o[2], v[3] ^ o[3]}
}

// IsZero reports whether no lane bit is set.
func (v V4) IsZero() bool { return v[0]|v[1]|v[2]|v[3] == 0 }

// Eq reports lanewise equality.
func (v V4) Eq(o V4) bool {
	return v[0] == o[0] && v[1] == o[1] && v[2] == o[2] && v[3] == o[3]
}

// WithBit returns v with lane l's bit set.
func (v V4) WithBit(l int) V4 {
	v[l>>6] |= 1 << uint(l&63)
	return v
}

// Has reports whether lane l's bit is set.
func (v V4) Has(l int) bool { return v[l>>6]>>uint(l&63)&1 == 1 }

// FirstN returns the mask of the first n lanes.
func (V4) FirstN(n int) V4 {
	var v V4
	for w := range v {
		switch {
		case n >= (w+1)*64:
			v[w] = ^uint64(0)
		case n > w*64:
			v[w] = 1<<uint(n-w*64) - 1
		}
	}
	return v
}

// TrailingZeros returns the lowest set lane, or 256 when zero.
func (v V4) TrailingZeros() int {
	for w := range v {
		if v[w] != 0 {
			return w*64 + bits.TrailingZeros64(v[w])
		}
	}
	return 256
}

// OnesCount returns the number of set lanes.
func (v V4) OnesCount() int {
	return bits.OnesCount64(v[0]) + bits.OnesCount64(v[1]) +
		bits.OnesCount64(v[2]) + bits.OnesCount64(v[3])
}

// Size returns 256.
func (V4) Size() int { return 256 }

// Words returns the underlying words.
func (v V4) Words() []uint64 { return []uint64{v[0], v[1], v[2], v[3]} }
