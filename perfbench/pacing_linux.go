package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace calls release(i, due) for i in [0, n), the i-th call no earlier than
// its due time start + i·interval. The Go runtime's timers wake up to a
// millisecond late here, which would dominate sub-millisecond latencies
// timed from the due time; pace instead sleeps in nanosleep on its own OS
// thread with a 1 µs timer slack, which wakes within tens of microseconds.
func pace(start time.Time, interval time.Duration, n int, release func(i int, due time.Time)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The thread keeps the changed timer slack, so it is never handed
		// back: a goroutine that exits locked takes its thread with it.
		runtime.LockOSThread()
		// Best effort: without it the pacing is only coarser.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
				}
			}
			release(i, due)
		}
	}()
	<-done
}
