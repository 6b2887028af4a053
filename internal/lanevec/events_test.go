package lanevec

// Event-vs-sweep settling parity at the lanevec level: both phases are
// chaotic iterations of a monotone operator, so the event-driven
// settle must land on the very fixpoint the Jacobi sweeps land on —
// per signal, per lane, at every cycle, faults included.

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/randckt"
)

// eventCycle drives one synchronous cycle on an event-initialised
// engine the way the good machine does: mark the rails, raise, re-seed
// from the accumulated activity, lower.
func eventCycle(e *Engine, rails []uint64) {
	all := e.All()
	e.ClearActivity()
	for i := 0; i < e.Circuit().NumInputs(); i++ {
		w := rails[i] & all
		e.MarkSignal(netlist.SigID(i), w, all&^w)
	}
	e.SeedFromActivity()
	e.RunRaise()
	e.SeedFromActivity()
	e.RunLower()
}

// eventReset loads the initial state and settles with every admitted
// gate seeded in both phases.
func eventReset(e *Engine) {
	e.LoadInit()
	e.EnqueueMaskGates()
	e.RunRaise()
	e.EnqueueMaskGates()
	e.RunLower()
}

func TestEventSettleMatchesSweep(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	const lanes, cycles = 8, 6
	tried := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ok := randckt.New(rng, randckt.Config{})
		if !ok {
			continue
		}
		tried++
		const all = uint64(1)<<lanes - 1

		sweep := NewEngine(c)
		sweep.SetAll(all)
		event := NewEngine(c)
		event.SetAll(all)
		event.InitEvents(c.Topology())

		// Inject the same per-lane faults into both engines so the
		// override kernels are exercised by the event path too.
		gi := rng.Intn(c.NumGates())
		mask := uint64(1) << rng.Intn(lanes)
		sweep.orOutOverride(gi, mask, 0)
		event.orOutOverride(gi, mask, 0)
		gj := rng.Intn(c.NumGates())
		if nf := len(c.Gates[gj].Fanin); nf > 0 {
			pin := rng.Intn(nf)
			pm := uint64(1) << rng.Intn(lanes)
			sweep.addPinOverride(gj, pin, pm, true)
			event.addPinOverride(gj, pin, pm, true)
		}
		// Directional (transition-fault) overrides: one slow-to-rise and
		// one slow-to-fall lane, possibly on a gate that is not
		// self-dependent in the good circuit — the event queue must
		// reach the same fixpoint without a self reader edge.
		gk := rng.Intn(c.NumGates())
		fm := uint64(1) << rng.Intn(lanes)
		rm := uint64(1) << rng.Intn(lanes)
		sweep.orDirOverride(gk, fm, rm)
		event.orDirOverride(gk, fm, rm)

		sweep.Reset()
		eventReset(event)
		compareStates(t, seed, -1, sweep, event, lanes)

		m := c.NumInputs()
		for cyc := 0; cyc < cycles; cyc++ {
			rails := make([]uint64, m)
			for l := 0; l < lanes; l++ {
				pat := rng.Uint64()
				for i := 0; i < m; i++ {
					rails[i] |= pat >> uint(i) & 1 << uint(l)
				}
			}
			sweep.ApplyRails(rails)
			eventCycle(event, rails)
			compareStates(t, seed, cyc, sweep, event, lanes)
		}
		if event.GateEvals() == 0 {
			t.Fatalf("seed %d: event engine reported no gate evaluations", seed)
		}
	}
	if tried == 0 {
		t.Fatal("no random circuit generated; event settle parity exercised nothing")
	}
	t.Logf("event-vs-sweep settled %d random circuits", tried)
}

func compareStates(t *testing.T, seed int64, cyc int, a, b *Engine, lanes int) {
	t.Helper()
	for l := 0; l < lanes; l++ {
		sa, sb := a.LaneState(l), b.LaneState(l)
		if !sa.Equal(sb) {
			t.Fatalf("seed %d cycle %d lane %d: sweep %s, event %s", seed, cyc, l, sa, sb)
		}
	}
}

// TestEventSettleRespectsGateMask: with the mask narrowed to one
// gate's fanout cone, the masked-out signals must stay exactly where
// the caller put them while the admitted cone still converges.
func TestEventSettleRespectsGateMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ckt, ok := randckt.New(rng, randckt.Config{MinGates: 8, MaxGates: 12})
	if !ok {
		t.Skip("no circuit for seed")
	}
	topo := ckt.Topology()
	e := NewEngine(ckt)
	e.SetAll(0xf)
	e.InitEvents(topo)
	e.LoadInit()
	// Admit only the cone of the last gate's output.
	out := ckt.GateOutput(ckt.NumGates() - 1)
	cone := topo.ConeOf(out)
	e.SetGateMask(topo.GateMaskW(cone, nil))
	e.EnqueueMaskGates()
	e.RunRaise()
	e.EnqueueMaskGates()
	e.RunLower()
	init := ckt.InitState()
	for s := 0; s < ckt.NumSignals(); s++ {
		if cone[s>>6]>>uint(s&63)&1 == 1 {
			continue
		}
		want := logic.FromBool(init>>uint(s)&1 == 1)
		for l := 0; l < 4; l++ {
			if got := e.LaneState(l)[s]; got != want {
				t.Fatalf("masked-out signal %d moved: %v (want %v)", s, got, want)
			}
		}
	}
}
