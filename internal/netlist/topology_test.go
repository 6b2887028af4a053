package netlist

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
)

func topoCircuit(t *testing.T) *Circuit {
	t.Helper()
	// A and B feed a NAND, whose output loops through a C element that
	// also reads itself (implicitly) and drives the only output; an
	// inverter hangs off A as a side cone.
	c, err := NewBuilder("topo").
		Input("A", "B").
		Gate("n", Nand, "A", "B").
		Gate("inv", Not, "A").
		Gate("y", C, "n", "inv").
		Output("y").
		InitAll(map[string]logic.V{
			"A": logic.Zero, "B": logic.Zero, "n": logic.One,
			"inv": logic.One, "y": logic.One,
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTopologyReadersIncludeSelfDependence(t *testing.T) {
	c := topoCircuit(t)
	topo := c.Topology()
	if topo != c.Topology() {
		t.Fatal("Topology must be cached per circuit")
	}
	ySig, _ := c.SignalID("y")
	yGate := c.GateOf(ySig)
	found := false
	for _, gi := range topo.Readers[ySig] {
		if gi == yGate {
			found = true
		}
	}
	if !found {
		t.Fatalf("Readers[%d] = %v must include the self-dependent C gate %d",
			ySig, topo.Readers[ySig], yGate)
	}
	// A plain fanout reader is listed too.
	nSig, _ := c.SignalID("n")
	if got := topo.Readers[nSig]; len(got) != 1 || got[0] != yGate {
		t.Fatalf("Readers[n] = %v, want [%d]", got, yGate)
	}
}

func TestTopologyLevelsAndCones(t *testing.T) {
	c := topoCircuit(t)
	topo := c.Topology()
	aSig, _ := c.SignalID("A")
	nSig, _ := c.SignalID("n")
	invSig, _ := c.SignalID("inv")
	ySig, _ := c.SignalID("y")
	if topo.Level[c.GateOf(nSig)] <= topo.Level[c.GateOf(aSig)] {
		t.Fatalf("NAND level %d must exceed its buffer's %d",
			topo.Level[c.GateOf(nSig)], topo.Level[c.GateOf(aSig)])
	}
	// Cone closure: A's buffer output reaches everything downstream.
	aCone := topo.ConeOf(aSig)[0]
	for _, s := range []SigID{aSig, nSig, invSig, ySig} {
		if aCone>>uint(s)&1 == 0 {
			t.Fatalf("cone of a (%b) must contain signal %d (%s)", aCone, s, c.SignalName(s))
		}
	}
	// y's cone is just itself (the self-loop closes, nothing reads y).
	if topo.ConeOf(ySig)[0] != 1<<uint(ySig) {
		t.Fatalf("cone of y = %b, want only itself", topo.ConeOf(ySig)[0])
	}
	// inv's cone excludes n (no path).
	if topo.ConeOf(invSig)[0]>>uint(nSig)&1 == 1 {
		t.Fatalf("cone of inv (%b) must not contain n", topo.ConeOf(invSig)[0])
	}
	// GateMaskW drops the rails and aligns gate bits.
	gm := topo.GateMaskW(topo.ConeOf(aSig), nil)[0]
	for _, s := range []SigID{nSig, invSig, ySig} {
		if gm>>uint(c.GateOf(s))&1 == 0 {
			t.Fatalf("gate mask %b missing gate of %s", gm, c.SignalName(s))
		}
	}
}

func TestTopologyCloneRebuilds(t *testing.T) {
	c := topoCircuit(t)
	topo := c.Topology()
	cp := c.Clone()
	if cp.Topology() == topo {
		t.Fatal("a clone must build its own topology")
	}
	if len(cp.Topology().Cone) != len(topo.Cone) {
		t.Fatal("clone topology shape differs")
	}
	for s := range topo.Cone {
		if cp.Topology().Cone[s] != topo.Cone[s] {
			t.Fatalf("clone cone differs at signal %d", s)
		}
	}
}

func TestTopologyFeedbackLevelsFinite(t *testing.T) {
	// Pure cross-coupled feedback (an RS latch out of NORs) must still
	// levelize and produce self-consistent cones.
	src := `
circuit latch
input S R
output Q
gate Q NOR R QB
gate QB NOR S Q
init S=0 R=1 Q=0 QB=1
`
	c, err := Parse(strings.NewReader(src), "latch.ckt")
	if err != nil {
		t.Fatal(err)
	}
	topo := c.Topology()
	q, _ := c.SignalID("Q")
	qb, _ := c.SignalID("QB")
	if topo.ConeOf(q)[0]>>uint(qb)&1 == 0 || topo.ConeOf(qb)[0]>>uint(q)&1 == 0 {
		t.Fatalf("feedback cones must include each other: Q=%b QB=%b", topo.ConeOf(q)[0], topo.ConeOf(qb)[0])
	}
	for gi, lv := range topo.Level {
		if lv < 0 || lv > c.NumGates() {
			t.Fatalf("gate %d level %d out of range", gi, lv)
		}
	}
}

// TestTopologyConcurrentBuildOnce hammers a fresh circuit's Topology()
// from many goroutines: every caller must see the same index, and the
// build counter must record exactly one construction — the sync.Once
// contract the concurrent coverage service leans on.
func TestTopologyConcurrentBuildOnce(t *testing.T) {
	c := topoCircuit(t)
	before := TopologyBuilds()
	const n = 16
	topos := make([]*Topology, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topos[i] = c.Topology()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if topos[i] != topos[0] {
			t.Fatalf("goroutine %d built a different Topology index", i)
		}
	}
	if got := TopologyBuilds() - before; got != 1 {
		t.Fatalf("%d topology builds for one circuit under %d concurrent callers, want 1", got, n)
	}
}
