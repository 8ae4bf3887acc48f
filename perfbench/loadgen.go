package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie beyond it. xs need not be sorted; it is not changed.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-idx-1 < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], true
}

// median is the plain median of xs (for repeated measurements such as
// set-up times, where no tail is reported).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pacer is the open loop's pacing function; the harness tests replace it
// with one that runs late.
var pacer = pace

// sender issues one request and reports whether it succeeded. i indexes the
// segment's request slice.
type sender func(ctx context.Context, i int) bool

// openResult is one open-loop segment: per-request latency from the due
// time (+Inf for a failure) and how late the generator released each
// request.
type openResult struct {
	latencyMs []float64
	lateMs    []float64
	failed    int
}

// openLoop releases n requests at a fixed rate, the i-th due at
// start + i/rate, to `workers` sender goroutines. A request is timed from
// its due time, so a stall raises the latency of every request queued
// behind it; the generator itself never waits for a sender, and its
// lateness (release time minus due time) is reported separately.
func openLoop(ctx context.Context, n int, rate float64, workers int, send sender) openResult {
	res := openResult{latencyMs: make([]float64, n), lateMs: make([]float64, n)}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to every send, so the generator never blocks on busy senders.
	jobs := make(chan job, n)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ok := send(ctx, j.i)
				lat := float64(time.Since(j.due)) / float64(time.Millisecond)
				if !ok {
					lat = math.Inf(1)
					failed.Add(1)
				}
				res.latencyMs[j.i] = lat
			}
		}()
	}
	pacer(time.Now(), time.Duration(float64(time.Second)/rate), n, func(i int, due time.Time) {
		res.lateMs[i] = float64(time.Since(due)) / float64(time.Millisecond)
		jobs <- job{i, due}
	})
	close(jobs)
	wg.Wait()
	res.failed = int(failed.Load())
	return res
}

// closedResult is one closed-loop segment.
type closedResult struct {
	ok      int
	elapsed time.Duration
}

// closedLoop runs `workers` senders, each sending its next request as soon
// as the previous one completes, until all n requests are sent.
func closedLoop(ctx context.Context, n, workers int, send sender) closedResult {
	var next, ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if send(ctx, i) {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return closedResult{ok: int(ok.Load()), elapsed: time.Since(start)}
}
