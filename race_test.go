//go:build race

package fxa

// raceEnabled reports a -race build. The race detector drops a quarter of
// sync.Pool puts at random, so a recycled allocation is not pinned there.
const raceEnabled = true
