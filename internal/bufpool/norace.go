//go:build !race

package bufpool

// RaceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of Puts: pooled paths still work
// but are no longer allocation-free, so allocation-count tests skip.
const RaceEnabled = false
