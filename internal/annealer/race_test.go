//go:build race

package annealer

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts, so pooled-scratch allocation pins cannot hold.
const raceEnabled = true
