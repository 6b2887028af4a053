package sim_test

// The event-driven settle against the Jacobi reference: bit-identical
// fixpoints from arbitrary ternary start states, for the good machine
// and every single stuck-at and transition fault.

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
	"repro/internal/sim"
)

// allFaults is the good machine (nil) followed by every fault of the
// output stuck-at, input stuck-at and transition universes.
func allFaults(c *netlist.Circuit) []*faults.Fault {
	universe := append(faults.OutputUniverse(c), faults.InputUniverse(c)...)
	universe = append(universe, faults.TransitionUniverse(c)...)
	out := []*faults.Fault{nil}
	for i := range universe {
		out = append(out, &universe[i])
	}
	return out
}

// randomStart draws a start state that is usually not a fixpoint:
// either uniformly random ternary values on every gate output, or the
// declared reset with a few gate outputs overwritten at random.  The
// rails are random and definite either way.
func randomStart(rng *rand.Rand, c *netlist.Circuit) logic.Vec {
	vals := [...]logic.V{logic.Zero, logic.One, logic.X}
	var st logic.Vec
	if rng.Intn(2) == 0 {
		st = make(logic.Vec, c.NumSignals())
		for s := range st {
			st[s] = vals[rng.Intn(3)]
		}
	} else {
		st = c.Init.Clone()
		for k := 1 + rng.Intn(3); k > 0 && c.NumGates() > 0; k-- {
			st[c.NumInputs()+rng.Intn(c.NumGates())] = vals[rng.Intn(3)]
		}
	}
	for i := 0; i < c.NumInputs(); i++ {
		st[i] = logic.FromBool(rng.Intn(2) == 1)
	}
	return st
}

// checkSettles settles starts random start states of c under every
// stride-th fault of allFaults (the good machine always), alternately
// through SettleTernary and a shared SettleBuf, and fails on the first
// state that differs from the Jacobi reference.  It returns the number
// of settles compared.
func checkSettles(t testing.TB, rng *rand.Rand, c *netlist.Circuit, buf *sim.SettleBuf, starts, stride int) int {
	t.Helper()
	n := 0
	all := allFaults(c)
	for i := 0; i < len(all); i += stride {
		f := all[i]
		for k := 0; k < starts; k++ {
			st := randomStart(rng, c)
			want := sim.SettleSweeps(c, st, f)
			var got sim.TernaryResult
			if n%2 == 0 {
				got = sim.SettleTernary(c, st, f)
			} else {
				got = buf.ApplyVector(c, st, railBits(c, st), f)
			}
			if !got.State.Equal(want) {
				desc := "good machine"
				if f != nil {
					desc = f.Describe(c)
				}
				t.Fatalf("%s, %s, start %s:\n event  %s\n sweeps %s", c.Name, desc, st, got.State, want)
			}
			n++
		}
	}
	return n
}

// railBits packs the rails of a state whose rails are definite.
func railBits(c *netlist.Circuit, st logic.Vec) uint64 {
	var w uint64
	for i := 0; i < c.NumInputs(); i++ {
		if st[i] == logic.One {
			w |= 1 << uint(i)
		}
	}
	return w
}

func loadISCAS(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "iscas", name+".ckt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := netlist.Parse(f, name+".ckt")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEventSettleMatchesSweeps compares the event-driven settle with the
// Jacobi reference on random feedback circuits, the Table-1/2 suites and
// the ISCAS-class corpus, under every fault of the three universes.
// s953 alone takes every fifth fault: a Jacobi settle there costs about
// a millisecond, and all 7,451 would take the test past ten seconds.
// One SettleBuf serves every circuit, so the queue's re-preparation
// across circuits is exercised too.
func TestEventSettleMatchesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf sim.SettleBuf
	randoms, starts, minSettles := 400, 3, 50000
	iscas := []string{"s27", "s349", "s953"}
	if testing.Short() {
		randoms, starts, minSettles = 40, 1, 0
		iscas = iscas[:1]
	}
	settles := 0
	for made := 0; made < randoms; {
		c, ok := randckt.New(rng, randckt.Config{FeedbackProb: 0.5})
		if !ok {
			continue
		}
		made++
		settles += checkSettles(t, rng, c, &buf, starts, 1)
	}
	for _, b := range append(circuits.SpeedIndependent(), circuits.HazardFree()...) {
		settles += checkSettles(t, rng, b.Circuit, &buf, starts, 1)
	}
	for _, name := range iscas {
		stride := 1
		if name == "s953" {
			stride = 5
		}
		settles += checkSettles(t, rng, loadISCAS(t, name), &buf, 1, stride)
	}
	if settles < minSettles {
		t.Fatalf("compared %d settles, want at least %d", settles, minSettles)
	}
	t.Logf("%d settles match the Jacobi reference", settles)
}

// TestSettleTernaryConcurrent: SettleTernary and ApplyVector share
// pooled scratch across goroutines; concurrent settles of two circuits
// must each match the Jacobi reference (run it with -race).
func TestSettleTernaryConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type job struct {
		c     *netlist.Circuit
		st    logic.Vec
		f     *faults.Fault
		want  logic.Vec
		apply bool
	}
	var jobs []job
	for _, c := range []*netlist.Circuit{loadISCAS(t, "s27"), circuits.Fig1a()} {
		for i, f := range allFaults(c) {
			st := randomStart(rng, c)
			jobs = append(jobs, job{c, st, f, sim.SettleSweeps(c, st, f), i%2 == 1})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k+w*len(jobs)/4)%len(jobs)]
				var got logic.Vec
				if j.apply {
					got = sim.ApplyVector(j.c, j.st, railBits(j.c, j.st), j.f).State
				} else {
					got = sim.SettleTernary(j.c, j.st, j.f).State
				}
				if !got.Equal(j.want) {
					t.Errorf("worker %d, %s: event %s, sweeps %s", w, j.c.Name, got, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzTernarySettleVsSweeps: the seed and size bytes build a randckt
// circuit with feedback; every fault of allFaults settles a few random
// start states, and the event settle must match the Jacobi reference.
func FuzzTernarySettleVsSweeps(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3))
	f.Add(int64(7), uint8(12), uint8(1))
	f.Add(int64(42), uint8(30), uint8(5))
	f.Add(int64(99), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, gates, starts uint8) {
		rng := rand.New(rand.NewSource(seed))
		ng := 1 + int(gates%40)
		c, ok := randckt.New(rng, randckt.Config{
			MinGates: ng, MaxGates: ng,
			FeedbackProb: 0.1 + 0.8*rng.Float64(),
		})
		if !ok {
			t.Skip("no stable circuit for this seed")
		}
		var buf sim.SettleBuf
		checkSettles(t, rng, c, &buf, 1+int(starts%4), 1)
	})
}
