//go:build !race

package fibril_test

const raceEnabled = false
