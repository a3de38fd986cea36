//go:build !race

package core

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
