package main

import (
	"fmt"
	"os"
	"path/filepath"

	satpg "repro"
)

// The flag-keyword resolvers live apart from main so their rejection
// behaviour is testable: every unknown value must fail with an error
// naming the valid choices, never fall through to a zero value.

func parseModel(s string) (satpg.FaultModel, error) {
	switch s {
	case "input":
		return satpg.InputStuckAt, nil
	case "output":
		return satpg.OutputStuckAt, nil
	}
	return 0, fmt.Errorf("unknown -model %q (want input or output)", s)
}

func parseFaultSelection(s string) (satpg.FaultSelection, error) {
	sel, ok := satpg.ParseFaultSelection(s)
	if !ok {
		return 0, fmt.Errorf("unknown -faults %q (want sa, transition or both)", s)
	}
	return sel, nil
}

func parseCompactMode(s string) (satpg.CompactMode, error) {
	m, ok := satpg.ParseCompactMode(s)
	if !ok {
		return 0, fmt.Errorf("unknown -compact %q (want none, reverse, dominance, greedy or all)", s)
	}
	return m, nil
}

// parseWorkers validates a goroutine-count flag: a positive count is
// taken as-is, 0 selects GOMAXPROCS, and a negative count is rejected
// up front — fsim would silently clamp it to one worker, hiding the
// typo (-fsim-workers -4 for -fsim-workers 4) behind a 4× slowdown.
func parseWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("invalid -fsim-workers %d (want a positive count, or 0 for GOMAXPROCS)", n)
	}
	return n, nil
}

// validateProfilePaths rejects a -cpuprofile/-memprofile pair naming
// the same file (the heap profile written at exit would truncate the
// CPU profile streamed over the whole run) and profile paths in
// directories that don't exist — the CPU profile would fail at startup
// before any work, but the heap profile failure would surface only at
// exit, after the whole run's work is already lost.
func validateProfilePaths(cpu, mem string) error {
	if cpu != "" && cpu == mem {
		return fmt.Errorf("-cpuprofile and -memprofile must name different files (both %q)", cpu)
	}
	for _, p := range []struct{ flag, path string }{
		{"cpuprofile", cpu}, {"memprofile", mem},
	} {
		if p.path == "" {
			continue
		}
		dir := filepath.Dir(p.path)
		st, err := os.Stat(dir)
		if err != nil || !st.IsDir() {
			return fmt.Errorf("-%s: directory %q does not exist", p.flag, dir)
		}
	}
	return nil
}

// createProfile opens the output file of a profiling flag, wrapping
// any failure with the flag's name so a bad path is attributable.
func createProfile(flagName, path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", flagName, err)
	}
	return f, nil
}
