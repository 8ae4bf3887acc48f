package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"fusecu/client"
	"fusecu/internal/bound"
)

// lateShare bounds the generator's lateness: a run is invalid when the
// median time by which the pacer released a request after its due time
// exceeds this share of the latency_p50_ms it reports. Latency is timed from
// the due time, so the pacer's own lateness goes straight into it; past
// this share the harness, not the fleet, would be setting the metric.
const lateShare = 0.2

// episodePlan is the requests one episode sends.
type episodePlan struct {
	open, closed []request
}

// planEpisodes draws every episode's requests from the seeded stream up
// front, so the oracle runs before any timing. The closed segments are
// drawn last, starting on a new pass, and together are whole passes.
func planEpisodes(w *workload, seed int64, seconds float64) ([]episodePlan, []request) {
	gen, warmup := w.stream(seed)
	plans := make([]episodePlan, w.episodes(seconds))
	for e := range plans {
		for i := 0; i < w.open; i++ {
			plans[e].open = append(plans[e].open, gen.next())
		}
	}
	gen.newPass()
	for e, n := range w.closedSizes(len(plans)) {
		for i := 0; i < n; i++ {
			plans[e].closed = append(plans[e].closed, gen.next())
		}
	}
	return plans, warmup
}

// answers records, per request of a segment, whether it succeeded and the
// memory access it reported. Each slot is written by one sender goroutine
// and read after the segment's goroutines have been waited for.
type answers struct {
	ok []bool
	ma []int64
}

func newAnswers(n int) *answers { return &answers{ok: make([]bool, n), ma: make([]int64, n)} }

func sendTo(cl *client.Client, reqs []request, a *answers) sender {
	return func(ctx context.Context, i int) bool {
		out, err := call(ctx, cl, &reqs[i])
		if err != nil {
			return false
		}
		a.ok[i], a.ma[i] = true, out.ma
		return true
	}
}

// check counts the answered requests whose memory access differs from the
// oracle's.
func check(reqs []request, a *answers, want oracle) int {
	bad := 0
	for i := range reqs {
		if a.ok[i] && a.ma[i] != want[keyOf(&reqs[i])] {
			bad++
		}
	}
	return bad
}

// endToEnd measures the workload with tracing off: per episode a fresh,
// warmed fleet (set-up timed), an open-loop segment at the workload's rate,
// a heap sample, and a closed-loop segment with fleetSize clients. Set-up
// is the median over all of a run's set-ups (one set-up is short and its
// time varies widely from one to the next: 51–97 ms within one decode-cold
// run); heap and the latency p50 are medians over episodes, so a burst of
// host noise that slows one episode does not move them. The tail
// percentiles, printed but not reported, are taken over the pooled
// open-loop samples.
func endToEnd(ctx context.Context, w *workload, seed int64, seconds float64, stderr io.Writer) (result, error) {
	plans, warmup := planEpisodes(w, seed, seconds)
	var all []request
	for _, p := range plans {
		all = append(append(all, p.open...), p.closed...)
	}
	want, err := buildOracle(all, fleetSize, w.name == "search-hot")
	if err != nil {
		return result{}, err
	}

	var setups, heaps, latency, late, p50s []float64
	var attempted, failed, mismatched, closedOK int
	var closedTime time.Duration
	var logRatio float64
	var ratios int
	for _, p := range plans {
		// Set up w.setups times and measure on the last fleet. Each
		// set-up starts from a collected heap, so the previous fleet's
		// garbage does not time the next one's collections.
		var f *fleet
		var setup time.Duration
		for j := 0; j < w.setups; j++ {
			if f != nil {
				f.stop()
			}
			runtime.GC()
			if f, setup, err = setUp(ctx, warmup); err != nil {
				return result{}, err
			}
			setups = append(setups, setup.Seconds())
		}

		oa := newAnswers(len(p.open))
		or := openLoop(ctx, len(p.open), w.rate, fleetSize, sendTo(f.cl, p.open, oa))
		latency = append(latency, or.latencyMs...)
		late = append(late, or.lateMs...)
		attempted += len(p.open)
		failed += or.failed
		mismatched += check(p.open, oa, want)
		for i := range p.open {
			if r := &p.open[i]; oa.ok[i] && r.Endpoint != epPlan {
				logRatio += math.Log(float64(oa.ma[i]) / float64(bound.LowerBound(matmul(r.Op), r.Buffer)))
				ratios++
			}
		}

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapInuse)/(1<<20))

		ca := newAnswers(len(p.closed))
		cr := closedLoop(ctx, len(p.closed), fleetSize, sendTo(f.cl, p.closed, ca))
		attempted += len(p.closed)
		failed += len(p.closed) - cr.ok
		closedOK += cr.ok
		closedTime += cr.elapsed
		mismatched += check(p.closed, ca, want)
		f.stop()
		ep50, ok := percentile(or.latencyMs, 0.5)
		if !ok {
			return result{}, fmt.Errorf("%w: %d open-loop samples in an episode are too few for a p50", errInvalid, len(or.latencyMs))
		}
		p50s = append(p50s, ep50)
		elate, _ := percentile(or.lateMs, 0.5)
		fmt.Fprintf(stderr, "  episode: setup %.3fs, open p50 %.3f ms late p50 %.3f ms, heap %.1f MiB, closed %.0f/s\n",
			setup.Seconds(), ep50, elate, heaps[len(heaps)-1], float64(cr.ok)/cr.elapsed.Seconds())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(stderr, "  memory obtained from the OS: %.0f MiB\n", float64(ms.Sys)/(1<<20))
	pooled := "  pooled latency:"
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		if v, ok := percentile(latency, q); ok {
			pooled += fmt.Sprintf(" p%.0f %.3f ms", 100*q, v)
		}
	}
	fmt.Fprintln(stderr, pooled)
	p50 := median(p50s)
	lateP50, _ := percentile(late, 0.50)
	lateP99 := fmt.Sprintf("n/a (needs 1000 samples; max %.3f ms)", slices.Max(late))
	if v, ok := percentile(late, 0.99); ok {
		lateP99 = fmt.Sprintf("%.3f ms", v)
	}
	fmt.Fprintf(stderr, "%s seed=%d: %d episodes, open loop %d samples at %.0f/s (median of episode p50s %.3f ms), generator late p50 %.3f ms p99 %s, closed loop %d ok in %.2fs, setup median %.3fs, %d attempted, %d failed, %d mismatched\n",
		w.name, seed, len(plans), len(latency), w.rate, p50, lateP50, lateP99, closedOK, closedTime.Seconds(), median(setups), attempted, failed, mismatched)
	if err := checkLateness(late, p50); err != nil {
		return result{}, err
	}
	if ratios == 0 || closedTime <= 0 {
		return result{}, fmt.Errorf("no answered requests to measure")
	}
	return result{
		Correct:   mismatched == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {p50, "ms"},
			"throughput_rps": {float64(closedOK) / closedTime.Seconds(), "1/s"},
			"success_rate":   {float64(attempted-failed) / float64(attempted), "ratio"},
			"heap_mb":        {median(heaps), "MiB"},
			"ma_over_bound":  {math.Exp(logRatio / float64(ratios)), "ratio"},
		},
	}, nil
}

// checkLateness marks a run invalid when the generator's median lateness
// exceeds lateShare of the latency p50 the run would report.
func checkLateness(lateMs []float64, p50 float64) error {
	lateP50, ok := percentile(lateMs, 0.5)
	if !ok {
		return fmt.Errorf("%w: %d lateness samples are too few for a p50", errInvalid, len(lateMs))
	}
	if lateP50 > lateShare*p50 {
		return fmt.Errorf("%w: generator late p50 %.3f ms exceeds %.0f%% of the latency p50 %.3f ms", errInvalid, lateP50, 100*lateShare, p50)
	}
	return nil
}
