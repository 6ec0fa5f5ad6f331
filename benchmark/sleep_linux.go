package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t and reports true, or reports false once stop
// is closed. It sleeps in nanosleep rather than on a Go timer: an idle Go
// process waits for timers in epoll with millisecond resolution, which
// on a 2-core VM made the open loop's requests leave ~0.6 ms late at the
// median, against ~0.08 ms with nanosleep.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		// Bounded slices keep a closed stop noticed within 10 ms; an
		// interrupted sleep just loops.
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		syscall.Nanosleep(&ts, nil)
	}
}
