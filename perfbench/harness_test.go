package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func draw(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	gen, warmup := w.stream(seed)
	reqs := append([]request(nil), warmup...)
	for i := 0; i < n; i++ {
		reqs = append(reqs, gen.next())
		if i == n/2 {
			gen.newPass()
		}
	}
	b, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := draw(t, w, 7, 3000), draw(t, w, 7, 3000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(a, draw(t, w, 8, 3000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestDecodeColdNeverRepeatsAShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		gen, warmup := decodeColdStream(seed)
		seen := map[[3]int]bool{}
		for _, r := range warmup {
			seen[[3]int{r.Op.M, r.Op.K, r.Op.L}] = true
		}
		for i := 0; i < 20000; i++ {
			if i%1000 == 999 {
				gen.newPass()
			}
			r := gen.next()
			k := [3]int{r.Op.M, r.Op.K, r.Op.L}
			if seen[k] {
				t.Fatalf("seed %d: request %d repeats shape %v", seed, i, k)
			}
			seen[k] = true
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{21, 0.50, true, 11},
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{200, 0.95, true, 190},
		{199, 0.95, false, 0},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls one request of a single-sender open
// loop: every request due during the stall waits behind it, and its latency,
// timed from its due time, covers that wait. The generator does not wait for
// the sender, so its own lateness stays small.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n     = 60
		rate  = 1000.0 // one request per millisecond
		stall = 100 * time.Millisecond
		at    = 10
	)
	send := func(ctx context.Context, i int) bool {
		if i == at {
			time.Sleep(stall)
		}
		return i != n-1 // the last request fails
	}
	res := openLoop(context.Background(), n, rate, 1, send)
	for i := at + 1; i < n-1; i++ {
		// Request i is due at i ms and cannot start before the stall ends at
		// (at ms + stall).
		floor := float64(at) + float64(stall/time.Millisecond) - float64(i)
		if res.latencyMs[i] < floor {
			t.Errorf("request %d: latency %.2f ms, want at least %.2f ms behind the stall", i, res.latencyMs[i], floor)
		}
	}
	if res.latencyMs[at-1] > float64(stall/time.Millisecond)/2 {
		t.Errorf("request %d before the stall: latency %.2f ms", at-1, res.latencyMs[at-1])
	}
	if res.failed != 1 || !(res.latencyMs[n-1] > 1e300) {
		t.Errorf("failed = %d, last latency %g; want 1 failure counted as infinite latency", res.failed, res.latencyMs[n-1])
	}
	if late, _ := percentile(res.lateMs, 0.5); late > float64(stall/time.Millisecond)/4 {
		t.Errorf("generator median lateness %.2f ms: the generator waited for the stalled sender", late)
	}
}

// TestLatePacerMarksRunInvalid runs the same open loop with a punctual pacer
// and with one that releases every request 4 ms after its due time. The late
// pacer raises the latency p50, since latency is timed from the due time,
// and the lateness gate marks that run invalid; the punctual run passes.
func TestLatePacerMarksRunInvalid(t *testing.T) {
	const (
		n     = 60
		rate  = 200.0 // one request every 5 ms
		delay = 4 * time.Millisecond
	)
	send := func(ctx context.Context, i int) bool {
		time.Sleep(2 * time.Millisecond)
		return true
	}
	loop := func() (float64, error) {
		res := openLoop(context.Background(), n, rate, 2, send)
		p50, ok := percentile(res.latencyMs, 0.5)
		if !ok {
			t.Fatalf("%d samples give no p50", n)
		}
		return p50, checkLateness(res.lateMs, p50)
	}
	onTime, err := loop()
	if err != nil {
		t.Fatalf("punctual pacer: %v", err)
	}
	defer func(p func(time.Time, time.Duration, int, func(int, time.Time))) { pacer = p }(pacer)
	pacer = func(start time.Time, interval time.Duration, n int, release func(int, time.Time)) {
		pace(start, interval, n, func(i int, due time.Time) {
			time.Sleep(delay)
			release(i, due)
		})
	}
	late, err := loop()
	if !errors.Is(err, errInvalid) {
		t.Errorf("late pacer: gate returned %v, want an invalid run", err)
	}
	if late < onTime+float64(delay/time.Millisecond)/2 {
		t.Errorf("late pacer: latency p50 %.2f ms, punctual %.2f ms; want the lateness in the latency", late, onTime)
	}
}

func TestScrapeReportsMissingCountersAsAbsent(t *testing.T) {
	s, err := parseExposition(strings.NewReader("table_builds 3\nroute_proxy_attempts_bucket{le=\"1\"} 5\nhttp_inflight_high 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.get("table_builds"); !ok || v != 3 {
		t.Errorf("table_builds = %g, %v; want 3, true", v, ok)
	}
	if _, ok := s.get("table_hits"); ok {
		t.Error("table_hits is not in the exposition but was reported present")
	}
	c := scrape{}
	c.add(s)
	c.add(scrape{"table_builds": 2, "http_inflight_high": 4})
	if v, _ := c.get("table_builds"); v != 5 {
		t.Errorf("summed table_builds = %g, want 5", v)
	}
	if v, _ := c.get("http_inflight_high"); v != 4 {
		t.Errorf("merged high-water mark = %g, want the maximum 4", v)
	}
	if _, ok := c.get("table_hits"); ok {
		t.Error("a counter no scrape carried became present after summing")
	}
	if _, err := parseExposition(strings.NewReader("table_builds three\n")); err == nil {
		t.Error("a malformed sample line parsed without error")
	}
}

// TestPrefillMix checks that each stratum of a prefill pass, and so each
// episode's open loop, is the same multiset for every seed, that a pass is
// 213 optimize and 71 plan points, and that a run's open-loop segments are
// whole passes and its closed-loop segments add up to whole passes.
func TestPrefillMix(t *testing.T) {
	strata := func(seed int64) []map[string]int {
		gen, _ := prefillStream(seed)
		gen.next()
		gen.newPass()
		out := make([]map[string]int, prefillStrata)
		for s := range out {
			out[s] = map[string]int{}
			for i := 0; i < prefillStratum; i++ {
				r := gen.next()
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				out[s][r.Endpoint]++
				out[s][string(b)]++
			}
		}
		return out
	}
	a, b := strata(1), strata(2)
	opt, plan := 0, 0
	for s := range a {
		opt += a[s][epOptimize]
		plan += a[s][epPlan]
		if len(a[s]) != len(b[s]) {
			t.Errorf("stratum %d: seeds 1 and 2 give %d and %d distinct entries", s, len(a[s]), len(b[s]))
		}
		for k, v := range a[s] {
			if b[s][k] != v {
				t.Fatalf("stratum %d: seeds 1 and 2 differ at %s", s, k)
			}
		}
	}
	if opt != 213 || plan != 71 {
		t.Errorf("one prefill pass = %d optimize, %d plan; want 213 and 71", opt, plan)
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, seconds := range []float64{5, 10, 28, 60} {
			n := w.episodes(seconds)
			if n%w.strata != 0 || (n*w.open)%w.passLen != 0 {
				t.Errorf("%s, %gs: %d episodes of %d open requests are not whole passes of %d", name, seconds, n, w.open, w.passLen)
			}
			total := 0
			for _, s := range w.closedSizes(n) {
				total += s
			}
			if total == 0 || total%w.passLen != 0 {
				t.Errorf("%s, %gs: %d episodes close %d requests, not whole passes of %d", name, seconds, n, total, w.passLen)
			}
		}
	}
}
