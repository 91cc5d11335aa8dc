//go:build !race

package cpubtree

// raceEnabled reports whether this binary was built with the race
// detector; see race_on_test.go.
const raceEnabled = false
