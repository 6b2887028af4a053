//go:build race

package fsim

// raceEnabled reports whether the race detector instruments this
// build; it allocates on its own, so allocation counts are not pinned.
const raceEnabled = true
