//go:build !race

package server

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
