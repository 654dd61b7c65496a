//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random quarter of what it is given, so a test that
// counts heap bytes sees the arena's recycled Matrix headers allocated
// anew.
const raceEnabled = true
