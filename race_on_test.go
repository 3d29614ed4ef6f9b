//go:build race

package fibril_test

// raceEnabled reports whether the test binary was built with -race, for
// the allocation gates its instrumentation would break: sync.Pool drops
// Puts at random under it.
const raceEnabled = true
