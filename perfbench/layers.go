package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"fusecu/client"
)

// layerInputs are the traced run's counts next to its spans.
type layerInputs struct {
	svc, rt                       scrape
	stats                         client.Stats
	handlerNs, serviceAllocs      []float64
	evals, hits                   []float64
	attempted, failed, mismatched int
	absent                        int
}

// scraped counters the per-layer report reads; each is reported absent, not
// 0, when the exposition does not carry it.
var (
	serviceCounters = []string{"table_builds", "table_hits", "table_evictions",
		"search_cache_hits_total", "search_cache_misses_total", "search_cache_entries",
		"http_inflight_high", "http_rejected_total", "degraded_responses"}
	routeCounters = []string{"route_proxy_attempts_sum", "route_proxy_attempts_count",
		"route_failovers_total", "route_hedges_total", "route_upstream_errors_total"}
)

// Tolerances of a traced run. A run over either is still reported, with a
// note on standard error: past sumGapTolerancePct the layer self times do not
// account for the routed latency, and past traceOverheadTolerancePct the
// split is measured on a system the tracing itself slowed.
const (
	sumGapTolerancePct        = 10
	traceOverheadTolerancePct = 25
)

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// layerResult turns the traced run's samples into the per-layer metrics.
// A metric whose input is missing (a counter absent from /metrics, or too
// few samples for its percentile) is left out and named on stderr.
func layerResult(w *workload, seed int64, lt *layerTimes, pr *probes, baseline []float64, in layerInputs, stderr io.Writer) (result, error) {
	m := map[string]metric{}
	var missing []string
	pct := func(name, unit string, xs []float64, q, scale float64) {
		v, ok := percentile(xs, q)
		if !ok {
			missing = append(missing, fmt.Sprintf("%s (%d samples)", name, len(xs)))
			return
		}
		m[name] = metric{v * scale, unit}
	}
	const us, ms = 1e-3, 1e-6
	pct("client.self_us", "us", lt.client, 0.5, us)
	pct("route.self_us", "us", lt.route, 0.5, us)
	pct("service.handler_us", "us", in.handlerNs, 0.5, us)
	pct("service.self_us", "us", lt.service, 0.5, us)
	pct("service.allocs_per_req", "count", in.serviceAllocs, 0.5, 1)
	pct("search.engine_us", "us", pr.searchNs, 0.5, us)
	pct("search.allocs_per_call", "count", pr.searchAllocs, 0.5, 1)
	pct("core.optimize_us", "us", pr.optimizeNs, 0.5, us)
	pct("core.optimize_p90_us", "us", pr.optimizeNs, 0.90, us)
	pct("core.plan_us", "us", pr.planNs, 0.5, us)
	pct("core.allocs_per_call", "count", pr.optimizeAllocs, 0.5, 1)
	pct("cost.evaluate_ns", "ns", pr.evaluateNs, 0.5, 1)
	pct("cost.ns_per_eval", "ns", pr.perEvalNs, 0.5, 1)
	m["core.considered"] = metric{mean(pr.considered), "count"}
	m["search.evals_per_req"] = metric{mean(in.evals), "count"}
	m["search.cache_hits_per_req"] = metric{mean(in.hits), "count"}
	m["client.retries"] = metric{float64(in.stats.Retries), "count"}
	m["client.transport_errors"] = metric{float64(in.stats.TransportErrors), "count"}
	m["service.degraded"] = metric{float64(in.stats.Degraded), "count"}

	counter := func(s scrape, name string) (float64, bool) {
		v, ok := s.get(name)
		if !ok {
			missing = append(missing, name+" (absent from /metrics)")
		}
		return v, ok
	}
	for _, c := range []struct{ metric, name string }{
		{"service.table_builds", "table_builds"},
		{"service.table_hits", "table_hits"},
		{"service.table_evictions", "table_evictions"},
		{"service.inflight_high", "http_inflight_high"},
		{"search.cache_entries", "search_cache_entries"},
	} {
		if v, ok := counter(in.svc, c.name); ok {
			m[c.metric] = metric{v, "count"}
		}
	}
	// A ratio or difference needs both of its counters.
	pair := func(s scrape, a, b string, f func(a, b float64) float64, name, unit string) {
		va, okA := counter(s, a)
		vb, okB := counter(s, b)
		if okA && okB {
			m[name] = metric{f(va, vb), unit}
		}
	}
	hitRatio := func(hits, misses float64) float64 { return ratio(hits, hits+misses) }
	pair(in.svc, "table_hits", "table_builds", hitRatio, "service.table_hit_ratio", "ratio")
	pair(in.svc, "search_cache_hits_total", "search_cache_misses_total", hitRatio, "search.cache_hit_ratio", "ratio")
	pair(in.rt, "route_proxy_attempts_sum", "route_proxy_attempts_count",
		func(sum, count float64) float64 { return sum - count }, "route.extra_attempts", "count")

	// Shares of the routed serial latency, and how far the sum of the
	// layers' median self times is from the median routed latency.
	routed := lt.sum["routed"]
	for _, l := range []string{"client", "route", "service", "search", "core"} {
		m[l+".share_pct"] = metric{100 * ratio(lt.sum[l], routed), "%"}
	}
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	if r := p50(lt.routed); r > 0 {
		gap := p50(lt.route) + p50(lt.client) + p50(lt.service) + p50(lt.engine) - r
		m["harness.sum_gap_pct"] = metric{100 * math.Abs(gap) / r, "%"}
	}
	if b := p50(baseline); b > 0 {
		m["harness.trace_overhead_pct"] = metric{100 * (p50(lt.routed) - b) / b, "%"}
	}

	fmt.Fprintf(stderr, "%s seed=%d traced: %d requests (%d failed, %d mismatched, %d engine spans absent), %d baseline samples; routed p50 %.1f us\n",
		w.name, seed, in.attempted, in.failed, in.mismatched, in.absent, len(baseline), p50(lt.routed)*1e-3)
	fmt.Fprintf(stderr, "  shares: client %.1f%%  route %.1f%%  service %.1f%%  search %.1f%%  core %.1f%%\n",
		m["client.share_pct"].Value, m["route.share_pct"].Value, m["service.share_pct"].Value,
		m["search.share_pct"].Value, m["core.share_pct"].Value)
	report := func(label string, s scrape, names []string) {
		fmt.Fprintf(stderr, "  %s counters:", label)
		for _, n := range names {
			if v, ok := s.get(n); ok {
				fmt.Fprintf(stderr, " %s=%g", n, v)
			} else {
				fmt.Fprintf(stderr, " %s=absent", n)
			}
		}
		fmt.Fprintln(stderr)
	}
	for _, c := range []struct {
		name string
		tol  float64
	}{{"harness.sum_gap_pct", sumGapTolerancePct}, {"harness.trace_overhead_pct", traceOverheadTolerancePct}} {
		if v, ok := m[c.name]; ok && v.Value > c.tol {
			fmt.Fprintf(stderr, "  %s %.1f exceeds its tolerance of %g%%\n", c.name, v.Value, c.tol)
		}
	}
	report("service", in.svc, serviceCounters)
	report("route", in.rt, routeCounters)
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(stderr, "  not reported: %v\n", missing)
	}
	if in.attempted == 0 {
		return result{}, fmt.Errorf("traced run replayed no request")
	}
	return result{
		Correct:   in.mismatched == 0,
		Attempted: in.attempted,
		Failed:    in.failed,
		Metrics:   m,
	}, nil
}
