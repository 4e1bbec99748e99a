package engine

// SetReplay switches the replay of published shuffle totals on or off for
// every engine and returns the previous setting. Callers switch it only
// while no simulation runs.
func SetReplay(on bool) (was bool) {
	was = !replayOff
	replayOff = !on
	return was
}
