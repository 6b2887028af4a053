package lanevec

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

const chainSrc = `
circuit chain
input A
output y
gate n1 NOT A
gate y NOT n1
init A=0 n1=1 y=0
`

func chain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(chainSrc, "chain.ckt")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineLanes checks that lanes evolve independently and that
// overrides inject stuck-at behaviour only in their masked lanes.
func TestEngineLanes(t *testing.T) {
	c := chain(t)
	e := NewEngine(c)
	const all, last = ^uint64(0), uint64(1) << (Lanes - 1)
	has := func(w uint64, l int) bool { return w>>uint(l)&1 == 1 }
	e.SetAll(all)
	e.Reset()

	// Drive A=1 in odd lanes, A=0 in even lanes.
	const odd = uint64(0xaaaaaaaaaaaaaaaa)
	e.ApplyRails([]uint64{odd})
	yID, _ := c.SignalID("y")
	d1, d0 := e.Definite(yID)
	if d1 != odd || d0 != all&^odd {
		t.Fatalf("lane independence broken: d1=%x d0=%x", d1, d0)
	}
	for _, l := range []int{0, 1, Lanes - 2, Lanes - 1} {
		st := e.LaneState(l)
		want := logic.Zero
		if l%2 == 1 {
			want = logic.One
		}
		if st[yID] != want {
			t.Fatalf("lane %d: y=%s want %s", l, st[yID], want)
		}
	}

	// Output override: stick y at 0 in the last lane only.
	e.ClearOverrides()
	e.orOutOverride(c.GateOf(yID), 0, last)
	e.ApplyRails([]uint64{all}) // A=1 everywhere: good y=1
	d1, _ = e.Definite(yID)
	if has(d1, Lanes-1) || !has(d1, 0) {
		t.Fatalf("output override leaked: d1=%x", d1)
	}

	// Pin override: n1's input pin perceives 0 in lane 0 → y=0 there.
	e.ClearOverrides()
	n1ID, _ := c.SignalID("n1")
	e.addPinOverride(c.GateOf(n1ID), 0, 1, false)
	e.ApplyRails([]uint64{all})
	d1, _ = e.Definite(yID)
	if has(d1, 0) || !has(d1, 1) {
		t.Fatalf("pin override wrong: d1=%x", d1)
	}

	// Directional override, slow-to-rise: y (= A after the double
	// inversion, reset 0) must never rise in the masked lane, and must
	// keep tracking A everywhere else.
	e.ClearOverrides()
	e.orDirOverride(c.GateOf(yID), last, 0)
	e.Reset()
	e.ApplyRails([]uint64{all}) // A=1: good y rises
	d1, d0 = e.Definite(yID)
	if has(d1, Lanes-1) || !has(d0, Lanes-1) || !has(d1, 0) {
		t.Fatalf("slow-to-rise leaked: d1=%x d0=%x", d1, d0)
	}

	// Slow-to-fall: after rising with the good lanes, y must stay 1 in
	// the masked lane when A drops.
	e.ClearOverrides()
	e.orDirOverride(c.GateOf(yID), 0, last)
	e.Reset()
	e.ApplyRails([]uint64{all}) // rise everywhere (rising is allowed)
	e.ApplyRails([]uint64{0})   // A=0: good y falls
	d1, d0 = e.Definite(yID)
	if !has(d1, Lanes-1) || has(d0, Lanes-1) || has(d1, 0) {
		t.Fatalf("slow-to-fall leaked: d1=%x d0=%x", d1, d0)
	}

	// ClearOverrides restores the good machine.
	e.ClearOverrides()
	e.ApplyRails([]uint64{all})
	d1, _ = e.Definite(yID)
	if d1 != all {
		t.Fatalf("overrides not cleared: d1=%x", d1)
	}
}
