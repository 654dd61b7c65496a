//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in
// (race_on_test.go).
const raceEnabled = false
