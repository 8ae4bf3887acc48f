package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fusecu/internal/core"
	"fusecu/internal/experiments"
	"fusecu/internal/faultinject"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// referenceLimit is the largest M·K·L the auto oracle test prices with the
// unpruned ReferenceExhaustive — every serve-load shape fits; the decode
// shapes (128 Ki points and up) are checked against core.Optimize, the
// exact oracle at large extents.
const referenceLimit = 1 << 15

// TestAutoMatchesOracles serves auto over the decode shapes ([g,128,kv] and
// [g,kv,128]) at 32 Ki–256 Ki buffers and the serve-load shapes at small
// buffers, and requires every answer to carry the exact optimum's MA while
// the server builds no table and fills no cache entry.
func TestAutoMatchesOracles(t *testing.T) {
	type point struct {
		mm     op.MatMul
		buffer int64
	}
	var points []point
	for _, g := range []int{1, 4, 8} {
		for _, kv := range []int{1000, 1024, 1031, 1500} {
			for _, buffer := range []int64{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
				points = append(points,
					point{op.MatMul{Name: "QKt", M: g, K: 128, L: kv}, buffer},
					point{op.MatMul{Name: "SV", M: g, K: kv, L: 128}, buffer})
			}
		}
	}
	for _, mm := range experiments.ServeLoadOps() {
		for _, buffer := range []int64{512, 1024, 4096} {
			points = append(points, point{mm, buffer})
		}
	}

	s, ts := newTestServer(t, Config{})
	for _, p := range points {
		oracle, want := "core.Optimize", int64(0)
		if int64(p.mm.M)*int64(p.mm.K)*int64(p.mm.L) <= referenceLimit {
			ref, err := search.ReferenceExhaustive(p.mm, p.buffer)
			if err != nil {
				t.Fatalf("%v BS=%d: reference: %v", p.mm, p.buffer, err)
			}
			oracle, want = "ReferenceExhaustive", ref.Access.Total
		} else {
			pr, err := core.Optimize(p.mm, p.buffer)
			if err != nil {
				t.Fatalf("%v BS=%d: core.Optimize: %v", p.mm, p.buffer, err)
			}
			want = pr.Access.Total
		}
		var resp searchResponse
		code, raw := post(t, ts, "/v1/search", searchBody(p.mm, p.buffer, "auto"), &resp)
		if code != http.StatusOK {
			t.Fatalf("%v BS=%d: status %d: %s", p.mm, p.buffer, code, raw)
		}
		if resp.Degraded || resp.Method != "analytic" {
			t.Fatalf("%v BS=%d: method %q degraded=%v, want the analytic engine", p.mm, p.buffer, resp.Method, resp.Degraded)
		}
		if resp.Dataflow.MemoryAccess != want {
			t.Errorf("%v BS=%d: served MA %d != %s %d", p.mm, p.buffer, resp.Dataflow.MemoryAccess, oracle, want)
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"table_builds 0", "search_cache_entries 0"} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics after %d auto requests lacks %q", len(points), want)
		}
	}
}

// TestAutoEngineFailureDegrades: a panic contained inside the analytic
// engine (its own fault site) degrades auto to the principle answer instead
// of unwinding into the panic-isolation middleware.
func TestAutoEngineFailureDegrades(t *testing.T) {
	faultinject.Activate(faultinject.New(1,
		faultinject.Plan{Site: search.SiteAnalytic, Mode: faultinject.ModePanic, Times: 1}))
	t.Cleanup(faultinject.Deactivate)

	s, ts := newTestServer(t, Config{})
	want, err := core.Optimize(refOp, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	code, raw := post(t, ts, "/v1/search", searchBody(refOp, 4096, "auto"), &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 degraded (%s)", code, raw)
	}
	if !resp.Degraded || resp.DegradedReason != "engine_failure" || resp.Method != "principle" {
		t.Fatalf("response not marked degraded-by-engine-failure: %+v", resp)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("degraded MA %d != principle optimum %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if got := s.Registry().Counter("panics_recovered").Value(); got != 0 {
		t.Fatalf("engine panic leaked to the middleware: panics_recovered = %d", got)
	}
}
