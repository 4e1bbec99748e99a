//go:build race

package dias_test

// raceEnabled reports that the race detector is compiled in. It makes
// sync.Pool drop a quarter of what is Put at random, so under it a test may
// not insist on an allocation count that relies on pooled scratch.
const raceEnabled = true
