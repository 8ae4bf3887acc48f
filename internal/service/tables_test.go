package service

import (
	"fmt"
	"net/http"
	"testing"

	"fusecu/internal/faultinject"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// searchBody builds a /v1/search request body for mm.
func searchBody(mm op.MatMul, buffer int64, engine string) string {
	return fmt.Sprintf(`{"op":{"name":%q,"m":%d,"k":%d,"l":%d},"buffer":%d,"engine":%q}`,
		mm.Name, mm.M, mm.K, mm.L, buffer, engine)
}

// TestSearchTableBitIdentityAcrossEngines drives every engine through the
// endpoint and checks the answers against the frozen reference engines —
// the end-to-end version of the candtable property tests. auto answers
// from the analytic engine alone: no table build, no cache fill.
func TestSearchTableBitIdentityAcrossEngines(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mm := op.MatMul{Name: "tbl", M: 36, K: 28, L: 30}
	const buffer = 2048

	wantAuto, err := search.OptimizeAnalytic(mm, buffer)
	if err != nil {
		t.Fatal(err)
	}
	var auto searchResponse
	code, raw := post(t, ts, "/v1/search", searchBody(mm, buffer, "auto"), &auto)
	if code != http.StatusOK {
		t.Fatalf("auto: status %d: %s", code, raw)
	}
	if want := dataflowOf(wantAuto.Dataflow, wantAuto.Access.NRA, wantAuto.Access.Total, wantAuto.Access.PerTensor); auto.Dataflow != want {
		t.Fatalf("auto: served %+v != analytic engine %+v", auto.Dataflow, want)
	}
	if auto.Method != "analytic" || auto.Evaluations != wantAuto.Evaluations || auto.CacheHits != 0 {
		t.Fatalf("auto: method %q, %d evals, %d hits; want analytic, %d, 0",
			auto.Method, auto.Evaluations, auto.CacheHits, wantAuto.Evaluations)
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 0 {
		t.Fatalf("auto built %d tables, want 0", tb)
	}
	if st := s.Cache().Stats(); st != (search.CacheStats{}) {
		t.Fatalf("auto touched the shared cache: %+v", st)
	}

	wantFull, err := search.ReferenceExhaustive(mm, buffer)
	if err != nil {
		t.Fatal(err)
	}
	wantCoarse, err := search.ReferenceCoarse(mm, buffer)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine string
		want   search.Result
	}{
		{"exhaustive", wantFull},
		{"coarse", wantCoarse},
	} {
		var resp searchResponse
		code, raw := post(t, ts, "/v1/search", searchBody(mm, buffer, tc.engine), &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.engine, code, raw)
		}
		if resp.Dataflow.MemoryAccess != tc.want.Access.Total ||
			resp.Dataflow.TM != tc.want.Dataflow.Tiling.TM ||
			resp.Dataflow.TK != tc.want.Dataflow.Tiling.TK ||
			resp.Dataflow.TL != tc.want.Dataflow.Tiling.TL {
			t.Fatalf("%s: table-served answer %+v != reference %+v", tc.engine, resp.Dataflow, tc.want.Dataflow)
		}
		if resp.Evaluations+resp.CacheHits == 0 {
			t.Fatalf("%s: no candidate visits reported", tc.engine)
		}
	}
	if wantAuto.Access.Total != wantFull.Access.Total {
		t.Fatalf("auto Total %d != exhaustive reference %d", wantAuto.Access.Total, wantFull.Access.Total)
	}

	// Two table engines over two grids → exactly two tables resident.
	if got := s.tables.len(); got != 2 {
		t.Fatalf("tables resident = %d, want 2 (full + coarse)", got)
	}
	if tb, th := s.Registry().Counter("table_builds").Value(), s.Registry().Counter("table_hits").Value(); tb != 2 || th != 0 {
		t.Fatalf("builds/hits = %d/%d, want 2/0", tb, th)
	}
}

// TestTableRegistryEvictsLRU pins the bounded-registry contract: capacity
// 2, three shapes, oldest evicted, re-request rebuilds.
func TestTableRegistryEvictsLRU(t *testing.T) {
	s, ts := newTestServer(t, Config{TableCapacity: 2})
	shapes := []op.MatMul{
		{Name: "a", M: 10, K: 10, L: 10},
		{Name: "b", M: 12, K: 10, L: 10},
		{Name: "c", M: 14, K: 10, L: 10},
	}
	for _, mm := range shapes {
		if code, raw := post(t, ts, "/v1/search", searchBody(mm, 1024, "exhaustive"), nil); code != http.StatusOK {
			t.Fatalf("%v: status %d: %s", mm, code, raw)
		}
	}
	if got := s.tables.len(); got != 2 {
		t.Fatalf("resident = %d, want 2 after eviction", got)
	}
	if ev := s.Registry().Counter("table_evictions").Value(); ev != 1 {
		t.Fatalf("table_evictions = %d, want 1", ev)
	}
	if g := s.Registry().Gauge("tables_resident"); g.Value() != 2 || g.High() != 2 {
		t.Fatalf("tables_resident gauge = %d (high %d), want 2/2", g.Value(), g.High())
	}
	// Shape "a" was least recently used and is gone; requesting it again
	// rebuilds (4 builds total) and answers identically.
	want, err := search.ReferenceExhaustive(shapes[0], 1024)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	if code, raw := post(t, ts, "/v1/search", searchBody(shapes[0], 1024, "exhaustive"), &resp); code != http.StatusOK {
		t.Fatalf("rebuild: status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("rebuilt table MA %d != reference %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 4 {
		t.Fatalf("table_builds = %d, want 4 (3 shapes + 1 rebuild after eviction)", tb)
	}
}

// TestTableBuildErrorRetries: an injected cost-model panic fails the first
// build (degraded answer, error counted), but the slot is discarded, so the
// next request rebuilds cleanly instead of pinning the transient fault.
func TestTableBuildErrorRetries(t *testing.T) {
	faultinject.Activate(faultinject.New(1,
		faultinject.Plan{Site: search.SiteEval, Mode: faultinject.ModePanic, Times: 1}))
	t.Cleanup(faultinject.Deactivate)

	s, ts := newTestServer(t, Config{})
	body := searchBody(refOp, 4096, "exhaustive")
	var first searchResponse
	if code, raw := post(t, ts, "/v1/search", body, &first); code != http.StatusOK {
		t.Fatalf("first: status %d: %s", code, raw)
	}
	if !first.Degraded || first.DegradedReason != "engine_failure" {
		t.Fatalf("first response not degraded by the build failure: %+v", first)
	}
	if be := s.Registry().Counter("table_build_errors").Value(); be != 1 {
		t.Fatalf("table_build_errors = %d, want 1", be)
	}
	if got := s.tables.len(); got != 0 {
		t.Fatalf("failed build left %d tables resident", got)
	}

	want, err := search.ReferenceExhaustive(refOp, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var second searchResponse
	if code, raw := post(t, ts, "/v1/search", body, &second); code != http.StatusOK {
		t.Fatalf("second: status %d: %s", code, raw)
	}
	if second.Degraded || second.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("retry after transient fault not clean: %+v", second)
	}
	if got := s.tables.len(); got != 1 {
		t.Fatalf("clean rebuild left %d tables resident, want 1", got)
	}
}

// TestDisableTablesRestoresScan: with the fast path off, repeated identical
// requests exercise the per-request scans and the shared eval cache, as
// before this feature existed.
func TestDisableTablesRestoresScan(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableTables: true})
	body := searchBody(op.MatMul{Name: "scan", M: 24, K: 20, L: 22}, 1024, "exhaustive")
	for i := 0; i < 2; i++ {
		if code, raw := post(t, ts, "/v1/search", body, nil); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 0 {
		t.Fatalf("table_builds = %d with tables disabled", tb)
	}
	if st := s.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("scan path did not use the shared cache: %+v", st)
	}
}

// TestTableCapRoutesLargeShapesToScan: a shape above TableMaxCandidates
// never materializes a table and is answered by the scan engines.
func TestTableCapRoutesLargeShapesToScan(t *testing.T) {
	s, ts := newTestServer(t, Config{TableMaxCandidates: 1000})
	mm := op.MatMul{Name: "big", M: 24, K: 20, L: 22} // 63,360 full-grid candidates
	want, err := search.ReferenceExhaustive(mm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	if code, raw := post(t, ts, "/v1/search", searchBody(mm, 1024, "exhaustive"), &resp); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("scan fallback MA %d != reference %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 0 {
		t.Fatalf("table_builds = %d, want 0 above the candidate cap", tb)
	}
}
