//go:build race

package core

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops a quarter of the entries put into it, at random.
const raceEnabled = true
