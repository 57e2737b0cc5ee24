//go:build !race

package rdns

// raceEnabled reports whether this test binary was built with the race
// detector, which perturbs exact allocation counts.
const raceEnabled = false
