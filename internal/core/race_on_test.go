//go:build race

package core

// raceEnabled reports whether the test binary was built with -race, for
// the timing gates its instrumentation would drown.
const raceEnabled = true
