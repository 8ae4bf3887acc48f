package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"fusecu/internal/experiments"
)

// serveSearch sends one /v1/search body through h in-process — no
// listener, no network — and fails the benchmark on any non-200 answer.
func serveSearch(b *testing.B, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkSearchAutoCold times the handler layer on cold auto searches:
// decode attention shapes [g,128,kv] and [g,kv,128] over g ∈ {1,4,8} and
// the 32 Ki–256 Ki buffers, with kv growing by one per request so that no
// shape repeats — the decode-cold serving pattern.
func BenchmarkSearchAutoCold(b *testing.B) {
	bufs := experiments.Fig9Buffers()[:4]
	bodies := make([][]byte, b.N)
	for i := range bodies {
		g := []int{1, 4, 8}[i%3]
		kv := 1024 + i
		m, k, l := g, 128, kv
		if i/3%2 == 1 {
			k, l = kv, 128
		}
		bodies[i] = []byte(fmt.Sprintf(`{"op":{"name":"dec","m":%d,"k":%d,"l":%d},"buffer":%d,"engine":"auto"}`,
			m, k, l, bufs[i/6%len(bufs)]))
	}
	h := New(Config{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		serveSearch(b, h, body)
	}
}

// BenchmarkSearchExhaustiveHit times the handler layer on a table hit: one
// serve-load shape, warmed once, then served from its candidate table.
func BenchmarkSearchExhaustiveHit(b *testing.B) {
	mm := experiments.ServeLoadOps()[0]
	body := []byte(searchBody(mm, 4096, "exhaustive"))
	h := New(Config{}).Handler()
	serveSearch(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSearch(b, h, body)
	}
}
