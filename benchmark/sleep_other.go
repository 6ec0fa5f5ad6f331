//go:build !linux

package main

import "time"

// sleepUntil blocks until t and reports true, or reports false once stop
// is closed.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}
