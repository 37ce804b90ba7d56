//go:build !race

package meter

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation adds allocations that would fail the
// allocation gates.
const raceEnabled = false
