//go:build !race

package annealer

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
