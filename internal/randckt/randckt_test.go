package randckt

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/symb"
)

func generate(t testing.TB, rng *rand.Rand, cfg Config) *netlist.Circuit {
	t.Helper()
	c, ok := New(rng, cfg)
	if !ok {
		t.Fatal("no stable random circuit found")
	}
	return c
}

func TestGeneratedCircuitsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cyclic := 0
	for i := 0; i < 60; i++ {
		c := generate(t, rng, Config{})
		if err := c.Validate(); err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		if !c.Stable(c.InitState()) {
			t.Fatalf("circuit %d: unstable reset", i)
		}
		if hasCycle(c) {
			cyclic++
		}
	}
	if cyclic == 0 {
		t.Error("generator never produced feedback — the interesting cases are missing")
	}
	t.Logf("%d/60 random circuits contain feedback", cyclic)
}

func hasCycle(c *netlist.Circuit) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, c.NumGates())
	var dfs func(int) bool
	dfs = func(gi int) bool {
		color[gi] = grey
		if c.Gates[gi].Kind.SelfDependent() {
			return true
		}
		for _, fg := range c.Fanouts(c.Gates[gi].Out) {
			switch color[fg] {
			case grey:
				return true
			case white:
				if dfs(fg) {
					return true
				}
			}
		}
		color[gi] = black
		return false
	}
	for gi := 0; gi < c.NumGates(); gi++ {
		if color[gi] == white && dfs(gi) {
			return true
		}
	}
	return false
}

// Property: every valid CSSG edge is confirmed by random binary
// interleavings, and every random settling outcome of an invalid vector
// is one of the recorded stable successors.
func TestCSSGEdgesMatchRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		c := generate(t, rng, Config{MaxGates: 9, MinGates: 4})
		opts := core.Options{MaxStatesPerPattern: 20000}
		g, err := core.Build(c, opts)
		if err != nil {
			t.Fatalf("circuit %d (%s): %v", i, c.Name, err)
		}
		checked := 0
		for id := 0; id < g.NumNodes() && checked < 40; id++ {
			for _, e := range g.Edges[id] {
				want := g.Nodes[e.To]
				for rep := 0; rep < 4; rep++ {
					st := c.WithInputBits(g.Nodes[id], e.Pattern)
					final, ok := sim.SettleRandom(c, st, 100000, rng)
					if !ok || final != want {
						t.Fatalf("%s: edge %d --%b--> diverged: got %s want %s",
							c.Name, id, e.Pattern, c.FormatState(final), c.FormatState(want))
					}
				}
				checked++
			}
		}
	}
}

// Property: the ternary settling envelope covers every exact stable
// successor, and a fully definite ternary result implies a unique valid
// successor equal to it.
func TestTernaryEnvelopeCoversExactOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		c := generate(t, rng, Config{MaxGates: 9, MinGates: 4})
		g, err := core.Build(c, core.Options{MaxStatesPerPattern: 20000})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.NumNodes() && id < 6; id++ {
			s := g.Nodes[id]
			for p := uint64(0); p < 1<<uint(c.NumInputs()); p++ {
				if p == c.InputBits(s) {
					continue
				}
				an := core.AnalyzeVector(c, s, p, core.Options{MaxStatesPerPattern: 20000})
				if an.Class == core.Truncated {
					continue
				}
				tern := sim.ApplyVector(c, sim.TernaryFromPacked(c, s), p, nil)
				for _, succ := range an.StableSuccs {
					sv := logic.FromBits(succ, c.NumSignals())
					for sig := range sv {
						if !logic.Compatible(tern.State[sig], sv[sig]) {
							t.Fatalf("%s: ternary %s incompatible with exact outcome %s",
								c.Name, tern.State, sv)
						}
					}
				}
				if tern.Definite() {
					// Fair (finite-delay) semantics: a definite ternary
					// result means every finite-delay execution settles
					// there — so it must be the *only* stable successor.
					// The path-based class may still be Unsettled when an
					// adversarial schedule can postpone a gate forever
					// (self-oscillating gates); see DESIGN.md §5.
					if len(an.StableSuccs) != 1 || an.StableSuccs[0] != tern.State.Bits() {
						t.Fatalf("%s: definite ternary %s but stable successors %d (class %s)",
							c.Name, tern.State, len(an.StableSuccs), an.Class)
					}
				}
			}
		}
	}
}

// Property: the symbolic (BDD) CSSG equals the explicit one on every
// random circuit small enough to enumerate.
func TestSymbolicEqualsExplicitOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	done := 0
	for i := 0; done < 12 && i < 60; i++ {
		c := generate(t, rng, Config{MinGates: 4, MaxGates: 7})
		if c.NumSignals() > 12 {
			continue
		}
		done++
		k := 2 * c.NumSignals()
		g, err := core.Build(c, core.Options{K: k, MaxStatesPerPattern: 20000})
		if err != nil {
			t.Fatal(err)
		}
		e := symb.NewEncoder(c)
		symEdges, err := e.ExtractEdges(k)
		if err != nil {
			t.Fatal(err)
		}
		type key struct{ from, to, pat uint64 }
		symSet := map[key]bool{}
		for _, se := range symEdges {
			symSet[key{se.From, se.To, se.Pattern}] = true
		}
		for id, edges := range g.Edges {
			for _, ed := range edges {
				k := key{g.Nodes[id], g.Nodes[ed.To], ed.Pattern}
				if !symSet[k] {
					t.Fatalf("%s: explicit edge missing symbolically: %s --%b--> %s",
						c.Name, c.FormatState(k.from), ed.Pattern, c.FormatState(k.to))
				}
			}
		}
		nodeSet := map[uint64]int{}
		for id, s := range g.Nodes {
			nodeSet[s] = id
		}
		for _, se := range symEdges {
			id, ok := nodeSet[se.From]
			if !ok {
				continue // stable state only reachable through invalid vectors
			}
			if _, ok := g.Succ(id, se.Pattern); !ok {
				t.Fatalf("%s: symbolic edge %s --%b--> %s not in explicit CSSG",
					c.Name, c.FormatState(se.From), se.Pattern, c.FormatState(se.To))
			}
		}
	}
	if done < 12 {
		t.Fatalf("only %d small circuits sampled", done)
	}
}

// Property: Explore's reach set is internally consistent: sorted,
// deduplicated, contains all stable successors, and every member is
// genuinely reachable (spot-checked by random walks).
func TestExploreInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		c := generate(t, rng, Config{MaxGates: 9, MinGates: 4})
		init := c.InitState()
		p := rng.Uint64() & (1<<uint(c.NumInputs()) - 1)
		cr := core.Explore(c, c.WithInputBits(init, p), core.Options{MaxStatesPerPattern: 20000})
		if cr.Truncated {
			continue
		}
		for j := 1; j < len(cr.ReachK); j++ {
			if cr.ReachK[j-1] >= cr.ReachK[j] {
				t.Fatalf("%s: ReachK not sorted/deduped", c.Name)
			}
		}
		inReach := map[uint64]bool{}
		for _, s := range cr.ReachK {
			inReach[s] = true
		}
		for _, s := range cr.StableSuccs {
			if !inReach[s] {
				t.Fatalf("%s: stable successor missing from ReachK", c.Name)
			}
			if !c.Stable(s) {
				t.Fatalf("%s: StableSuccs contains unstable state", c.Name)
			}
		}
		if cr.UnstableAtK != (len(cr.ReachK) > len(cr.StableSuccs)) {
			t.Fatalf("%s: UnstableAtK flag inconsistent with ReachK contents", c.Name)
		}
	}
}

// Property: the ATPG soundness contract holds on random circuits — any
// fault it reports detected is verified by the exact machine and by
// random delay assignments, and accounting always closes.
func TestATPGSoundOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		c := generate(t, rng, Config{MaxGates: 8, MinGates: 4})
		g, err := core.Build(c, core.Options{MaxStatesPerPattern: 20000})
		if err != nil {
			t.Fatal(err)
		}
		res := atpg.Run(g, faults.InputSA, atpg.Options{Seed: 1, RandomSequences: 16, RandomLength: 8})
		if res.Covered+res.Untestable+res.Aborted != res.Total {
			t.Fatalf("%s: accounting broken: %s", c.Name, res.Summary())
		}
		for _, fr := range res.PerFault {
			if !fr.Detected {
				continue
			}
			if !atpg.Verify(g, fr.Fault, res.Tests[fr.TestIndex], atpg.Options{}) {
				t.Fatalf("%s: covering test for %s fails exact verification",
					c.Name, fr.Fault.Describe(c))
			}
		}
	}
}
