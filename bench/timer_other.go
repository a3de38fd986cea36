//go:build !linux

package main

import "time"

// dueTimer falls back to the runtime's timers, which may wake up to a
// millisecond late; the lateness is reported either way.
type dueTimer struct{}

func newDueTimer() (*dueTimer, error) { return &dueTimer{}, nil }

func (d *dueTimer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (d *dueTimer) close() {}
