//go:build !race

package shardcluster

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
