//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of what is Put, so an allocation pin on a pooled path cannot hold.
const raceEnabled = true
