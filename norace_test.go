//go:build !race

package dias_test

const raceEnabled = false
