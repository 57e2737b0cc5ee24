//go:build race

package hitlist

// raceEnabled reports whether this test binary was built with the race
// detector, which perturbs exact allocation counts.
const raceEnabled = true
