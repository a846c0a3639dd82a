//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where timerfd is unavailable; expect
// the generator to report sub-millisecond lag.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (s *sleeper) close() {}
