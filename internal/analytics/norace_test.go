//go:build !race

package analytics

const raceEnabled = false
