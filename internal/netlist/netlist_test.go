package netlist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
)

// fig1aSrc is a small circuit in the style of the paper's Figure 1(a):
// inputs A, B are implicitly buffered; internal gates have reconvergent
// fanout and a state-holding C element.
const fig1aSrc = `
# Figure 1(a)-style circuit (reconstruction).
circuit fig1a
input A B
output y
gate c NAND A B
gate d AND  A c
gate e OR   B d
gate y C    d e
init A=0 B=1 c=1 d=0 e=1 y=0
`

func parseMust(t *testing.T, src, name string) *Circuit {
	t.Helper()
	c, err := ParseString(src, name)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

func TestParseBasic(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	if c.Name != "fig1a" {
		t.Errorf("name = %q", c.Name)
	}
	if c.NumInputs() != 2 || c.NumGates() != 6 || c.NumSignals() != 8 {
		t.Errorf("counts: m=%d g=%d n=%d", c.NumInputs(), c.NumGates(), c.NumSignals())
	}
	// Signal layout: rails A,B then buffers A,B then c,d,e,y.
	wantNames := []string{"A@in", "B@in", "A", "B", "c", "d", "e", "y"}
	for i, w := range wantNames {
		if got := c.SignalName(SigID(i)); got != w {
			t.Errorf("signal %d name = %q, want %q", i, got, w)
		}
	}
	if id, ok := c.SignalID("A"); !ok || c.GateOf(id) != 0 {
		t.Errorf("input name must resolve to buffer output, got %v %v", id, ok)
	}
}

func TestInitialStateStable(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	st := c.InitState()
	if !c.Stable(st) {
		t.Fatalf("declared init state %s is not stable", c.FormatState(st))
	}
}

func TestEvalBinaryKinds(t *testing.T) {
	src := `
circuit kinds
input a b c
output o1
gate o1 AND a b
gate o2 OR a b
gate o3 NAND a b
gate o4 NOR a b
gate o5 XOR a b
gate o6 XNOR a b
gate o7 NOT a
gate o8 BUF a
gate o9 MAJ a b c
gate o10 TABLE 0110 a b
init a=0 b=0 c=0 o1=0 o2=0 o3=1 o4=1 o5=0 o6=1 o7=1 o8=0 o9=0 o10=0
`
	c := parseMust(t, src, "kinds.ckt")
	type fn func(a, b, cc bool) bool
	checks := map[string]fn{
		"o1":  func(a, b, _ bool) bool { return a && b },
		"o2":  func(a, b, _ bool) bool { return a || b },
		"o3":  func(a, b, _ bool) bool { return !(a && b) },
		"o4":  func(a, b, _ bool) bool { return !(a || b) },
		"o5":  func(a, b, _ bool) bool { return a != b },
		"o6":  func(a, b, _ bool) bool { return a == b },
		"o7":  func(a, _, _ bool) bool { return !a },
		"o8":  func(a, _, _ bool) bool { return a },
		"o9":  func(a, b, cc bool) bool { return (a && b) || (a && cc) || (b && cc) },
		"o10": func(a, b, _ bool) bool { return a != b },
	}
	aID := mustID(t, c, "a")
	bID := mustID(t, c, "b")
	cID := mustID(t, c, "c")
	for name, want := range checks {
		gi := c.GateOf(mustID(t, c, name))
		for bitsVal := 0; bitsVal < 8; bitsVal++ {
			a, b2, c3 := bitsVal&1 == 1, bitsVal&2 == 2, bitsVal&4 == 4
			var st uint64
			set := func(id SigID, v bool) {
				if v {
					st |= 1 << uint(id)
				}
			}
			set(aID, a)
			set(bID, b2)
			set(cID, c3)
			if got := c.EvalBinary(gi, st); got != want(a, b2, c3) {
				t.Errorf("%s(%v,%v,%v) = %v", name, a, b2, c3, got)
			}
		}
	}
}

func TestCElementSemantics(t *testing.T) {
	src := `
circuit cel
input a b
output z
gate z C a b
init a=0 b=0 z=0
`
	c := parseMust(t, src, "cel.ckt")
	zID := mustID(t, c, "z")
	gi := c.GateOf(zID)
	aID := mustID(t, c, "a")
	bID := mustID(t, c, "b")
	mk := func(a, b, z bool) uint64 {
		var st uint64
		if a {
			st |= 1 << uint(aID)
		}
		if b {
			st |= 1 << uint(bID)
		}
		if z {
			st |= 1 << uint(zID)
		}
		return st
	}
	cases := []struct{ a, b, z, want bool }{
		{false, false, false, false},
		{false, false, true, false}, // both 0: output resets
		{true, true, false, true},   // both 1: output sets
		{true, true, true, true},
		{true, false, false, false}, // disagree: hold
		{true, false, true, true},
		{false, true, false, false},
		{false, true, true, true},
	}
	for _, tc := range cases {
		if got := c.EvalBinary(gi, mk(tc.a, tc.b, tc.z)); got != tc.want {
			t.Errorf("C(a=%v,b=%v,z=%v) = %v, want %v", tc.a, tc.b, tc.z, got, tc.want)
		}
	}
}

func TestEvalTernaryExactness(t *testing.T) {
	// For every gate in a mixed circuit and every ternary local input
	// assignment, EvalTernary must equal the envelope of all completions.
	src := `
circuit tern
input a b
output z
gate n1 NAND a b
gate x1 XOR a n1
gate z C a x1
init a=0 b=0 n1=1 x1=1 z=0
`
	c := parseMust(t, src, "tern.ckt")
	vals := []logic.V{logic.Zero, logic.One, logic.X}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		n := g.NLocal()
		total := 1
		for i := 0; i < n; i++ {
			total *= 3
		}
		for enc := 0; enc < total; enc++ {
			st := make(logic.Vec, c.NumSignals())
			for i := range st {
				st[i] = logic.X
			}
			locals := make([]logic.V, n)
			e := enc
			for i := 0; i < n; i++ {
				locals[i] = vals[e%3]
				e /= 3
			}
			for j, f := range g.Fanin {
				st[f] = locals[j]
			}
			if g.Kind.SelfDependent() {
				st[g.Out] = locals[n-1]
			}
			got := c.EvalTernary(gi, st)
			// Envelope: enumerate completions via the truth table.
			var seen0, seen1 bool
			for idx := 0; idx < len(g.Tbl); idx++ {
				ok := true
				for j := 0; j < n; j++ {
					bit := logic.FromBool(idx>>uint(j)&1 == 1)
					if locals[j].IsDefinite() && locals[j] != bit {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if g.Tbl[idx] == logic.One {
					seen1 = true
				} else {
					seen0 = true
				}
			}
			var want logic.V
			switch {
			case seen0 && seen1:
				want = logic.X
			case seen1:
				want = logic.One
			default:
				want = logic.Zero
			}
			if got != want {
				t.Fatalf("gate %s locals %v: EvalTernary = %s, want %s", g.Name, locals, got, want)
			}
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	text := c.String()
	c2, err := ParseString(text, "fig1a-rt.ckt")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if c2.String() != text {
		t.Errorf("round trip not canonical:\n%s\nvs\n%s", text, c2.String())
	}
	if c2.NumSignals() != c.NumSignals() || c2.InitState() != c.InitState() {
		t.Error("round trip changed structure")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no-circuit", "input a\n", "expected 'circuit"},
		{"dup-circuit", "circuit x\ncircuit y\n", "duplicate 'circuit'"},
		{"bad-kind", "circuit x\ninput a\ngate g FROB a\n", "unknown gate kind"},
		{"bad-init", "circuit x\ninput a\ngate g BUF a\ninit g=2\n", "value must be 0 or 1"},
		{"missing-init", "circuit x\ninput a\noutput g\ngate g BUF a\ninit a=0\n", "initial state missing"},
		{"unknown-fanin", "circuit x\ninput a\noutput g\ngate g BUF qq\ninit a=0 g=0\n", "unknown signal"},
		{"dup-gate", "circuit x\ninput a\noutput g\ngate g BUF a\ngate g BUF a\ninit a=0 g=0\n", "duplicate signal name"},
		{"output-not-gate", "circuit x\ninput a\noutput zz\ngate g BUF a\ninit a=0 g=0\n", "not a gate output"},
		{"unstable-init", "circuit x\ninput a\noutput g\ngate g NOT a\ninit a=0 g=0\n", "not stable"},
		{"no-output", "circuit x\ninput a\ngate g BUF a\ninit a=0 g=0\n", "no primary outputs"},
		{"bad-table", "circuit x\ninput a\noutput g\ngate g TABLE 011 a\ninit a=0 g=0\n", "has 3 digits"},
		{"empty", "", "empty circuit"},
		{"malformed-init", "circuit x\ninput a\noutput g\ngate g BUF a\ninit g\n", "malformed init"},
		{"gate-no-fanin", "circuit x\ninput a\noutput g\ngate g AND\ninit a=0 g=0\n", "at least one fanin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src, tc.name+".ckt")
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseString("circuit x\ninput a\ngate g FROB a\n", "pos.ckt")
	if err == nil || !strings.Contains(err.Error(), "pos.ckt:3") {
		t.Errorf("want position pos.ckt:3 in error, got %v", err)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "# header\n\ncircuit x # trailing\ninput a\noutput g\n\ngate g BUF a # buffer\ninit a=1 g=1\n"
	c := parseMust(t, src, "comments.ckt")
	if c.Name != "x" || c.NumSignals() != 3 {
		t.Errorf("unexpected parse: %s", c.String())
	}
}

func TestExcitedAndFire(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	st := c.InitState()
	// Flip input rail A to 1: buffer A becomes excited.
	st2 := c.WithInputBits(st, c.InputBits(st)|1)
	bufA := c.GateOf(mustID(t, c, "A"))
	if !c.Excited(bufA, st2) {
		t.Fatal("buffer A should be excited after rail change")
	}
	st3 := c.Fire(bufA, st2)
	if c.Excited(bufA, st3) {
		t.Error("buffer A should be stable after firing")
	}
	if st3>>uint(mustID(t, c, "A"))&1 != 1 {
		t.Error("firing should set buffer output")
	}
	// ExcitedGates on the init state must be empty.
	if got := c.ExcitedGates(st, nil); len(got) != 0 {
		t.Errorf("init state has excited gates %v", got)
	}
}

func mustID(t *testing.T, c *Circuit, name string) SigID {
	t.Helper()
	id, ok := c.SignalID(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return id
}

func TestFanouts(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	bufOut := mustID(t, c, "A")
	fo := c.Fanouts(bufOut)
	// Buffer A feeds gates c and d.
	if len(fo) != 2 {
		t.Errorf("fanouts of A = %v, want 2 gates", fo)
	}
}

func TestInputBitsHelpers(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	st := c.InitState()
	if c.InputBits(st) != 0b10 { // A=0, B=1
		t.Errorf("InputBits = %b, want 10", c.InputBits(st))
	}
	st2 := c.WithInputBits(st, 0b01)
	if c.InputBits(st2) != 0b01 {
		t.Errorf("WithInputBits failed: %b", c.InputBits(st2))
	}
	if st2>>2 != st>>2 {
		t.Error("WithInputBits modified non-rail bits")
	}
}

func TestOutputBits(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	y := mustID(t, c, "y")
	st := uint64(1) << uint(y)
	if c.OutputBits(st) != 1 {
		t.Error("OutputBits should reflect y")
	}
	if c.OutputBits(0) != 0 {
		t.Error("OutputBits of zero state")
	}
}

func TestBuilderSelfLoopAndForwardRef(t *testing.T) {
	// SR latch: two cross-coupled NORs (forward reference qb in q).
	b := NewBuilder("sr")
	b.Input("s", "r")
	b.Gate("q", Nor, "r", "qb")
	b.Gate("qb", Nor, "s", "q")
	b.Output("q")
	b.Init("s", logic.Zero)
	b.Init("r", logic.Zero)
	b.Init("q", logic.Zero)
	b.Init("qb", logic.One)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Stable(c.InitState()) {
		t.Error("SR latch init must be stable")
	}
}

// bufChain builds a stable buffer chain with the given number of gates
// (signals = gates + 2, counting the input rail and its buffer).
func bufChain(name string, gates int) *Builder {
	b := NewBuilder(name)
	b.Input("a")
	b.Init("a", logic.Zero)
	prev := "a"
	for i := 0; i < gates; i++ {
		gn := fmt.Sprintf("g%d", i)
		b.Gate(gn, Buf, prev)
		b.Init(gn, logic.Zero)
		prev = gn
	}
	b.Output(prev)
	return b
}

func TestValidateSignalCapDerivedFromWordCapacity(t *testing.T) {
	// 70 signals used to trip a hard-coded 64-signal cap; the multi-word
	// engines accept it with a two-word state vector.
	c, err := bufChain("big", 68).Build()
	if err != nil {
		t.Fatalf("70-signal circuit must validate: %v", err)
	}
	if got := c.StateWords(); got != 2 {
		t.Errorf("StateWords() = %d, want 2 for %d signals", got, c.NumSignals())
	}
	// The cap that remains is the engines' declared word capacity.
	if _, err := bufChain("huge", MaxSignals).Build(); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("want derived signal-cap error, got %v", err)
	}
}

func TestMultiWordOpsMatchSingleWord(t *testing.T) {
	// On a one-word circuit the *W family must agree with the packed
	// uint64 family bit for bit.
	c := topoCircuit(t)
	st := c.InitState()
	stw := c.InitWords()
	if len(stw) != 1 || stw[0] != st {
		t.Fatalf("InitWords() = %v, want [%b]", stw, st)
	}
	for gi := 0; gi < c.NumGates(); gi++ {
		if c.EvalBinary(gi, st) != c.EvalBinaryW(gi, stw) {
			t.Errorf("EvalBinaryW(%d) diverges", gi)
		}
		if c.Excited(gi, st) != c.ExcitedW(gi, stw) {
			t.Errorf("ExcitedW(%d) diverges", gi)
		}
	}
	if c.Stable(st) != c.StableW(stw) {
		t.Error("StableW diverges")
	}
	if c.InputBits(st) != c.InputBitsW(stw) {
		t.Error("InputBitsW diverges")
	}
	if c.FormatState(st) != c.FormatStateW(stw) {
		t.Error("FormatStateW diverges")
	}
	c.FireW(0, stw)
	if got := c.Fire(0, st); stw[0] != got {
		t.Errorf("FireW = %b, want %b", stw[0], got)
	}
}

func TestTableGateSelfReference(t *testing.T) {
	// A table gate referencing its own output as an explicit fanin models
	// an asymmetric latch: q' = set OR (q AND NOT reset).
	// Index = set + 2*reset + 4*q; table below encodes that function.
	src := `
circuit lat
input set reset
output q
gate q TABLE 01011101 set reset q
init set=0 reset=0 q=0
`
	c := parseMust(t, src, "lat.ckt")
	qID := mustID(t, c, "q")
	gi := c.GateOf(qID)
	sID := mustID(t, c, "set")
	rID := mustID(t, c, "reset")
	eval := func(s, r, q bool) bool {
		var st uint64
		if s {
			st |= 1 << uint(sID)
		}
		if r {
			st |= 1 << uint(rID)
		}
		if q {
			st |= 1 << uint(qID)
		}
		return c.EvalBinary(gi, st)
	}
	cases := []struct{ s, r, q, want bool }{
		{false, false, false, false}, // idle
		{true, false, false, true},   // set
		{false, false, true, true},   // hold
		{false, true, true, false},   // reset
		{true, true, false, true},    // set dominates in this encoding
	}
	for _, tc := range cases {
		if got := eval(tc.s, tc.r, tc.q); got != tc.want {
			t.Errorf("lat(s=%v,r=%v,q=%v) = %v, want %v", tc.s, tc.r, tc.q, got, tc.want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{Buf, Not, And, Or, Nand, Nor, Xor, Xnor, C, Maj, Table} {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%s) = %v, %v", k, got, ok)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("bogus kind resolved")
	}
}
