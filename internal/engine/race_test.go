//go:build race

package engine

// raceEnabled reports that the race detector is compiled in. It makes
// sync.Pool drop a quarter of what is Put at random, so under it a test may
// insist neither that a pooled object is the one the next Get finds nor on
// an allocation count that relies on pooled scratch.
const raceEnabled = true
