//go:build !linux

package main

import "time"

// pacer waits for scheduled send times with Go's timers.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// sleepUntil returns at t, or at once when t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() error { return nil }
