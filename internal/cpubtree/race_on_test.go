//go:build race

package cpubtree

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation allocates; allocation-count
// regression tests skip themselves under it.
const raceEnabled = true
