//go:build !race

package bufpool

// RaceEnabled reports a build with the race detector, under which every
// sync.Pool (the standard library's, internal/chunk's flate coders')
// drops a random quarter of Puts, so allocation-count tests skip.
const RaceEnabled = false
