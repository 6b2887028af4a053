package main

import (
	"path/filepath"
	"strings"
	"testing"

	satpg "repro"
)

// Every flag-keyword resolver must reject unknown values with an error
// that names the flag and lists the valid choices — a typo'd keyword
// silently falling back to a default runs a different experiment than
// the one asked for.

func TestParseModel(t *testing.T) {
	if m, err := parseModel("input"); err != nil || m != satpg.InputStuckAt {
		t.Fatalf("parseModel(input) = %v, %v", m, err)
	}
	if m, err := parseModel("output"); err != nil || m != satpg.OutputStuckAt {
		t.Fatalf("parseModel(output) = %v, %v", m, err)
	}
	_, err := parseModel("both")
	if err == nil || !strings.Contains(err.Error(), "-model") || !strings.Contains(err.Error(), "input or output") {
		t.Fatalf("parseModel(both) error = %v; want -model rejection listing choices", err)
	}
}

func TestParseFaultSelection(t *testing.T) {
	for _, ok := range []string{"sa", "transition", "both"} {
		if _, err := parseFaultSelection(ok); err != nil {
			t.Fatalf("parseFaultSelection(%s): %v", ok, err)
		}
	}
	_, err := parseFaultSelection("stuckat")
	if err == nil || !strings.Contains(err.Error(), "-faults") || !strings.Contains(err.Error(), "sa, transition or both") {
		t.Fatalf("parseFaultSelection(stuckat) error = %v; want -faults rejection listing choices", err)
	}
}

func TestParseCompactMode(t *testing.T) {
	for _, ok := range []string{"none", "reverse", "dominance", "greedy", "all"} {
		if _, err := parseCompactMode(ok); err != nil {
			t.Fatalf("parseCompactMode(%s): %v", ok, err)
		}
	}
	_, err := parseCompactMode("fixpoint")
	if err == nil || !strings.Contains(err.Error(), "-compact") || !strings.Contains(err.Error(), "none, reverse, dominance, greedy or all") {
		t.Fatalf("parseCompactMode(fixpoint) error = %v; want -compact rejection listing choices", err)
	}
}

func TestValidateProfilePaths(t *testing.T) {
	for _, ok := range [][2]string{
		{"", ""}, {"cpu.prof", ""}, {"", "mem.prof"}, {"cpu.prof", "mem.prof"},
	} {
		if err := validateProfilePaths(ok[0], ok[1]); err != nil {
			t.Fatalf("validateProfilePaths(%q, %q): %v", ok[0], ok[1], err)
		}
	}
	err := validateProfilePaths("same.prof", "same.prof")
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") || !strings.Contains(err.Error(), "-memprofile") {
		t.Fatalf("same-path profiles error = %v; want rejection naming both flags", err)
	}
}

func TestValidateProfilePathsRejectsMissingDirectories(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "cpu.prof")
	if err := validateProfilePaths(good, ""); err != nil {
		t.Fatalf("existing-dir profile rejected: %v", err)
	}
	bad := filepath.Join(dir, "missing", "mem.prof")
	err := validateProfilePaths("", bad)
	if err == nil || !strings.Contains(err.Error(), "-memprofile") || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing-dir memprofile error = %v; want -memprofile rejection", err)
	}
	err = validateProfilePaths(bad, "")
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("missing-dir cpuprofile error = %v; want -cpuprofile rejection", err)
	}
}

func TestCreateProfileNamesFlagOnFailure(t *testing.T) {
	dir := t.TempDir()
	f, err := createProfile("cpuprofile", filepath.Join(dir, "cpu.prof"))
	if err != nil {
		t.Fatalf("createProfile in temp dir: %v", err)
	}
	f.Close()
	_, err = createProfile("memprofile", filepath.Join(dir, "missing", "mem.prof"))
	if err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Fatalf("bad-path profile error = %v; want rejection naming -memprofile", err)
	}
}
