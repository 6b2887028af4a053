//go:build !race

package atpg

// raceEnabled reports whether the race detector instruments this
// build, which runs the reuse differential about ten times slower.
const raceEnabled = false
