//go:build !linux

package main

import "time"

// pace calls release(i, due) for i in [0, n), the i-th call no earlier than
// its due time start + i·interval.
func pace(start time.Time, interval time.Duration, n int, release func(i int, due time.Time)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		release(i, due)
	}
}
