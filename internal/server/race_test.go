//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of what is Put, so a zero-allocation pin on a pooled path cannot hold.
const raceEnabled = true
