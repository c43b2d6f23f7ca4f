//go:build race

package bufpool

const RaceEnabled = true // see norace.go
