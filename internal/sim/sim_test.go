package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

const fig1aSrc = `
circuit fig1a
input A B
output y
gate c NAND A B
gate d AND  A c
gate e OR   B d
gate y C    d e
init A=0 B=1 c=1 d=0 e=1 y=0
`

// oscSrc reconstructs Figure 1(b): raising A starts an oscillation
// between gates c and d (a NAND ring enabled by A).
const oscSrc = `
circuit fig1b
input A
output d
gate c NAND A d
gate d BUF  c
init A=0 c=1 d=1
`

func parseMust(t testing.TB, src, name string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(src, name)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

// randomDAG builds a random feed-forward circuit (plus self-holding C
// gates) whose initial state is computable by forward evaluation, so it
// is always stable.
func randomDAG(rng *rand.Rand) *netlist.Circuit {
	m := 2 + rng.Intn(3)
	ng := 3 + rng.Intn(8)
	b := netlist.NewBuilder(fmt.Sprintf("rand%d", rng.Int63()))
	names := make([]string, 0, m+ng)
	vals := make(map[string]logic.V)
	for i := 0; i < m; i++ {
		n := fmt.Sprintf("i%d", i)
		b.Input(n)
		names = append(names, n)
		v := logic.FromBool(rng.Intn(2) == 1)
		b.Init(n, v)
		vals[n] = v
	}
	kinds := []netlist.Kind{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
		netlist.Maj, netlist.C,
	}
	bv := func(n string) bool { return vals[n] == logic.One }
	for gi := 0; gi < ng; gi++ {
		name := fmt.Sprintf("g%d", gi)
		kind := kinds[rng.Intn(len(kinds))]
		var nf int
		switch kind {
		case netlist.Not, netlist.Buf:
			nf = 1
		case netlist.Maj:
			nf = 3
		default:
			nf = 2 + rng.Intn(2)
		}
		fanin := make([]string, nf)
		for j := range fanin {
			fanin[j] = names[rng.Intn(len(names))]
		}
		b.Gate(name, kind, fanin...)
		// Forward-evaluate the initial value.
		ones := 0
		for _, f := range fanin {
			if bv(f) {
				ones++
			}
		}
		var v bool
		switch kind {
		case netlist.And:
			v = ones == nf
		case netlist.Or:
			v = ones > 0
		case netlist.Nand:
			v = ones != nf
		case netlist.Nor:
			v = ones == 0
		case netlist.Xor:
			v = ones%2 == 1
		case netlist.Xnor:
			v = ones%2 == 0
		case netlist.Not:
			v = ones == 0
		case netlist.Buf:
			v = ones == 1
		case netlist.Maj:
			v = 2*ones > nf
		case netlist.C:
			v = ones == nf // all-ones sets; otherwise 0 is a stable hold
		}
		b.Init(name, logic.FromBool(v))
		vals[name] = logic.FromBool(v)
		names = append(names, name)
	}
	b.Output(names[len(names)-1])
	b.Output(names[m+rng.Intn(ng)])
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestSettleDeterministicSchedule(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	st := c.InitState()
	// Raise A (keep B): rails 11.
	st = c.WithInputBits(st, 0b11)
	final, ok := Settle(c, st, 1000)
	if !ok {
		t.Fatal("did not settle")
	}
	if !c.Stable(final) {
		t.Fatal("Settle returned unstable state")
	}
}

func TestSettleRandomMatchesTernaryWhenDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		c := randomDAG(rng)
		init := c.InitState()
		pattern := rng.Uint64() & (1<<uint(c.NumInputs()) - 1)
		res := ApplyVector(c, TernaryFromPacked(c, init), pattern, nil)
		for rep := 0; rep < 10; rep++ {
			bst := c.WithInputBits(init, pattern)
			final, ok := SettleRandom(c, bst, 100000, rng)
			if !ok {
				t.Fatalf("%s: random settle did not stabilise", c.Name)
			}
			fv := logic.FromBits(final, c.NumSignals())
			for s := range fv {
				if !logic.Compatible(res.State[s], fv[s]) {
					t.Fatalf("%s: ternary %s incompatible with binary %s at signal %s",
						c.Name, res.State, fv, c.SignalName(netlist.SigID(s)))
				}
			}
			if res.Definite() && !fv.Equal(res.State) {
				t.Fatalf("%s: definite ternary %s != binary outcome %s", c.Name, res.State, fv)
			}
		}
	}
}

func TestTernaryDetectsOscillation(t *testing.T) {
	c := parseMust(t, oscSrc, "fig1b.ckt")
	res := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 1, nil)
	if res.Definite() {
		t.Fatalf("oscillating circuit settled definitely: %s", res.State)
	}
	cID, _ := c.SignalID("c")
	dID, _ := c.SignalID("d")
	if res.State[cID] != logic.X || res.State[dID] != logic.X {
		t.Errorf("oscillating signals should be X, got c=%s d=%s", res.State[cID], res.State[dID])
	}
}

func TestTernaryDetectsRace(t *testing.T) {
	// Classic critical race: both NOR-latch inputs pulse simultaneously
	// via buffered paths. From s=1,r=1 (both latch inputs active) moving
	// to s=0,r=0 races the latch.
	src := `
circuit race
input s r
output q
gate q  NOR r qb
gate qb NOR s q
init s=1 r=1 q=0 qb=0
`
	c := parseMust(t, src, "race.ckt")
	res := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 0, nil)
	if res.Definite() {
		t.Fatalf("racing latch settled definitely: %s", res.State)
	}
}

func TestTernaryStableIsFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		c := randomDAG(rng)
		st := TernaryFromPacked(c, c.InitState())
		res := SettleTernary(c, st, nil)
		if !res.State.Equal(st) {
			t.Fatalf("%s: settling a stable state changed it: %s -> %s", c.Name, st, res.State)
		}
		if ref := settleSweeps(c, st, nil); ref.SweepsA != 1 || ref.SweepsB != 1 {
			t.Fatalf("%s: stable state needed %d/%d sweeps", c.Name, ref.SweepsA, ref.SweepsB)
		}
		if res.EvalsA != c.NumGates() || res.EvalsB != 0 {
			t.Fatalf("%s: stable state cost %d/%d gate evaluations, want %d/0",
				c.Name, res.EvalsA, res.EvalsB, c.NumGates())
		}
	}
}

func TestOutputStuckAtForcesSignal(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	yID, _ := c.SignalID("y")
	gi := c.GateOf(yID)
	f := &faults.Fault{Type: faults.OutputSA, Gate: gi, Pin: -1, Value: logic.One}
	res := SettleTernary(c, TernaryFromPacked(c, c.InitState()), f)
	if res.State[yID] != logic.One {
		t.Errorf("y should be forced to 1, got %s", res.State[yID])
	}
}

func TestInputStuckAtSemantics(t *testing.T) {
	// z = AND(a, b); pin 0 (a) stuck at 1 makes z follow b.
	src := `
circuit and2
input a b
output z
gate z AND a b
init a=0 b=1 z=0
`
	c := parseMust(t, src, "and2.ckt")
	zID, _ := c.SignalID("z")
	gi := c.GateOf(zID)
	f := &faults.Fault{Type: faults.InputSA, Gate: gi, Pin: 0, Value: logic.One}
	res := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 0b10, f) // a=0, b=1
	if res.State[zID] != logic.One {
		t.Errorf("faulty z should be 1 (sees a=1,b=1), got %s", res.State[zID])
	}
	good := ApplyVector(c, TernaryFromPacked(c, c.InitState()), 0b10, nil)
	if good.State[zID] != logic.Zero {
		t.Errorf("good z should be 0, got %s", good.State[zID])
	}
}

func TestMachineStepAndOutputs(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	good := Machine{C: c}
	st := good.InitState()
	if !st.AllDefinite() {
		t.Fatal("good init must be definite")
	}
	st2 := good.Step(st, 0b11)
	if st2.AllDefinite() {
		outs := good.Outputs(st2)
		if len(outs) != 1 {
			t.Fatalf("want 1 output, got %d", len(outs))
		}
	}
}

func TestFaultUniverses(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	out := faults.OutputUniverse(c)
	if len(out) != 2*c.NumGates() {
		t.Errorf("output universe %d, want %d", len(out), 2*c.NumGates())
	}
	pins := 0
	for gi := 0; gi < c.NumGates(); gi++ {
		pins += len(c.Gates[gi].Fanin)
	}
	in := faults.InputUniverse(c)
	if len(in) != 2*pins {
		t.Errorf("input universe %d, want %d", len(in), 2*pins)
	}
	// Excitation: y=0 initially, so y/SA1 is excited, y/SA0 is not.
	yID, _ := c.SignalID("y")
	gi := c.GateOf(yID)
	sa0 := faults.Fault{Type: faults.OutputSA, Gate: gi, Pin: -1, Value: logic.Zero}
	sa1 := faults.Fault{Type: faults.OutputSA, Gate: gi, Pin: -1, Value: logic.One}
	if sa0.ExcitedIn(c, c.InitState()) {
		t.Error("y/SA0 should not be excited when y=0")
	}
	if !sa1.ExcitedIn(c, c.InitState()) {
		t.Error("y/SA1 should be excited when y=0")
	}
}

func TestFaultDescribe(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	yID, _ := c.SignalID("y")
	gi := c.GateOf(yID)
	f := faults.Fault{Type: faults.OutputSA, Gate: gi, Pin: -1, Value: logic.Zero}
	if got := f.Describe(c); got != "y/SA0" {
		t.Errorf("Describe = %q", got)
	}
	fin := faults.Fault{Type: faults.InputSA, Gate: gi, Pin: 1, Value: logic.One}
	if got := fin.Describe(c); got != "y.pin1(e)/SA1" {
		t.Errorf("Describe = %q", got)
	}
}

func TestCollapseStats(t *testing.T) {
	c := parseMust(t, fig1aSrc, "fig1a.ckt")
	cl := faults.Collapse(c, faults.InputUniverse(c))
	if cl.Stats.Total == 0 || cl.Stats.EquivalentToOut == 0 {
		t.Errorf("collapse stats empty: %+v", cl.Stats)
	}
}
