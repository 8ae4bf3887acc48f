package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fusecu/client"
	"fusecu/internal/core"
	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/op"
	"fusecu/internal/search"
	"fusecu/internal/service"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the traced run began. A parent's children are replays of the same
// request one layer further in, made right after it, so a child's coverage
// of its parent is the child's duration capped at the parent's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(req, parent int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// heapAllocs reads the process's cumulative allocation count. The fleet is
// idle between the replays of a traced request, so a delta around one call
// counts that call's allocations. ReadMemStats stops the world, which makes
// the count exact, and empties every P's allocation cache. The next calls
// pay to refill those caches (it doubled the routed latency on search-hot
// when every request was counted), so allocations are counted only on
// requests that are not timed, after every timed call of their episode.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// engineTwin replays a replica's engine work through the public library
// calls, holding the same evaluation cache and candidate tables the
// replica's request sequence has built. Its tables are never evicted:
// traceCap bounds how many one episode can build.
type engineTwin struct {
	cache  *search.EvalCache
	tables map[tableKey]*search.CandTable
}

type tableKey struct {
	m, k, l int
	grid    search.Grid
}

func newEngineTwin() *engineTwin {
	return &engineTwin{cache: search.NewEvalCache(), tables: map[tableKey]*search.CandTable{}}
}

func (e *engineTwin) table(mm op.MatMul, g search.Grid) (*search.CandTable, error) {
	k := tableKey{mm.M, mm.K, mm.L, g}
	if t, ok := e.tables[k]; ok {
		return t, nil
	}
	t, err := search.NewCandTable(mm, g, e.cache)
	if err != nil {
		return nil, err
	}
	e.tables[k] = t
	return t, nil
}

// engineResult is what an engine replay computed.
type engineResult struct {
	ma         int64
	df         dataflow.Dataflow
	considered int
}

// engineCall maps a request and the method its answer reported onto the
// public library call that computed it, and the layer that call belongs
// to. An unknown method returns a nil call: the engine span is absent.
func (e *engineTwin) engineCall(ctx context.Context, r *request, method string) (string, func() (engineResult, error)) {
	mm := matmul(r.Op)
	fromSearch := func(res search.Result, err error) (engineResult, error) {
		return engineResult{ma: res.Access.Total, df: res.Dataflow}, err
	}
	optimize := func() (engineResult, error) {
		res, err := core.Optimize(mm, r.Buffer)
		return engineResult{ma: res.Access.Total, df: res.Dataflow, considered: len(res.Considered)}, err
	}
	workers := runtime.GOMAXPROCS(0)
	switch {
	case r.Endpoint == epOptimize, method == "principle":
		return "core", optimize
	case r.Endpoint == epPlan:
		return "core", func() (engineResult, error) {
			p, err := planChain(r)
			return engineResult{ma: p.TotalMA}, err
		}
	case method == "table", method == "table-coarse" && r.Engine == "coarse":
		g := search.GridFull
		if method == "table-coarse" {
			g = search.GridCoarse
		}
		return "search", func() (engineResult, error) {
			t, err := e.table(mm, g)
			if err != nil {
				return engineResult{}, err
			}
			return fromSearch(t.Best(r.Buffer))
		}
	case method == "table-coarse", method == "table+analytic":
		return "search", func() (engineResult, error) {
			t, err := e.table(mm, search.GridCoarse)
			if err != nil {
				return engineResult{}, err
			}
			return fromSearch(search.OptimizeTableCtx(ctx, mm, r.Buffer, search.GeneticOptions{}, t, e.cache))
		}
	case method == "analytic":
		return "search", func() (engineResult, error) {
			return fromSearch(search.OptimizeTableCtx(ctx, mm, r.Buffer, search.GeneticOptions{}, nil, e.cache))
		}
	case method == "coarse+analytic", method == "exhaustive-coarse" && r.Engine != "coarse":
		return "search", func() (engineResult, error) {
			return fromSearch(search.OptimizeParallelCtx(ctx, mm, r.Buffer, search.GeneticOptions{}, workers, e.cache))
		}
	case method == "exhaustive":
		return "search", func() (engineResult, error) {
			return fromSearch(search.ParallelExhaustiveCtx(ctx, mm, r.Buffer, workers, e.cache))
		}
	}
	return "", nil
}

func planChain(r *request) (core.ChainPlan, error) {
	ops := make([]op.MatMul, len(r.Ops))
	for i, o := range r.Ops {
		ops[i] = matmul(o)
	}
	c, err := op.NewChain(r.Chain, ops...)
	if err != nil {
		return core.ChainPlan{}, err
	}
	return core.PlanChain(c, r.Buffer)
}

// tracedSet is a routed fleet plus, per replica, three twins that receive
// exactly the requests the router sent that replica, in the same order:
// one behind its own listener for the direct client call, one called
// in-process through httptest for the handler span, and an engine twin.
// Replaying against twins rather than the replica itself keeps every replay
// on the state the routed call saw (a decode-cold shape is new to each).
type tracedSet struct {
	*fleet
	direct   []*replica
	directCl []*client.Client
	handlers []http.Handler
	engines  []*engineTwin
}

func setUpTraced(ctx context.Context, warmup []request) (*tracedSet, error) {
	f, err := bootFleet(ctx)
	if err != nil {
		return nil, err
	}
	ts := &tracedSet{fleet: f}
	for i := 0; i < fleetSize; i++ {
		d, err := startReplica()
		if err != nil {
			ts.stop()
			return nil, err
		}
		ts.direct = append(ts.direct, d)
		cl, err := client.New(client.Config{BaseURL: d.url})
		if err != nil {
			ts.stop()
			return nil, err
		}
		ts.directCl = append(ts.directCl, cl)
		ts.handlers = append(ts.handlers, service.New(service.Config{}).Handler())
		ts.engines = append(ts.engines, newEngineTwin())
	}
	for i := range warmup {
		if _, err := ts.replay(ctx, &warmup[i], -1, nil, false); err != nil {
			ts.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return ts, nil
}

func (ts *tracedSet) stop() {
	ts.fleet.stop()
	for _, d := range ts.direct {
		d.stop()
	}
}

// sample is one traced request's measurements (durations in ns).
type sample struct {
	req                      *request
	routed, direct, handler  int64
	engine                   int64 // -1: absent
	layer                    string
	handlerAllocs, engAllocs uint64
	routedOut                outcome
	engineOut                engineResult
}

// replay sends r through the router, then to the owning replica's twins:
// the direct client call, the handler through httptest, and the engine's
// public library call. With a tracer it records the four spans. With
// counted it counts the handler's and the engine's allocations, which
// disturbs the timing of the calls after it (see heapAllocs).
func (ts *tracedSet) replay(ctx context.Context, r *request, id int, tr *tracer, counted bool) (sample, error) {
	var s sample
	s.req = r
	clock := func() int64 { return time.Now().UnixNano() }
	if tr != nil {
		clock = tr.now
	}
	allocs := func() uint64 { return 0 }
	if counted {
		allocs = heapAllocs
	}
	before := make([]int64, len(ts.router.Backends()))
	for i, b := range ts.router.Backends() {
		before[i] = b.Requests()
	}
	t0 := clock()
	out, err := call(ctx, ts.cl, r)
	t1 := clock()
	if err != nil {
		return s, fmt.Errorf("routed call: %w", err)
	}
	s.routedOut = out
	owner := -1
	for i, b := range ts.router.Backends() {
		if b.Requests() != before[i] {
			owner = i
		}
	}
	if owner < 0 {
		return s, fmt.Errorf("routed call reached no replica")
	}

	t2 := clock()
	dout, err := call(ctx, ts.directCl[owner], r)
	t3 := clock()
	if err != nil {
		return s, fmt.Errorf("direct call: %w", err)
	}
	if dout.ma != out.ma {
		return s, fmt.Errorf("direct call answered %d, routed %d", dout.ma, out.ma)
	}

	body, err := json.Marshal(r.payload())
	if err != nil {
		return s, err
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/"+r.Endpoint, bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	a0 := allocs()
	t4 := clock()
	ts.handlers[owner].ServeHTTP(rec, hreq)
	t5 := clock()
	s.handlerAllocs = allocs() - a0
	if rec.Code != http.StatusOK {
		return s, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
	}

	s.engine = -1
	layer, engine := ts.engines[owner].engineCall(ctx, r, out.method)
	var t6, t7 int64
	if engine != nil {
		a2 := allocs()
		t6 = clock()
		res, err := engine()
		t7 = clock()
		s.engAllocs = allocs() - a2
		if err != nil {
			return s, fmt.Errorf("engine replay (%s): %w", out.method, err)
		}
		if res.ma != out.ma {
			return s, fmt.Errorf("engine replay (%s) computed %d, routed call answered %d", out.method, res.ma, out.ma)
		}
		s.engine, s.layer, s.engineOut = t7-t6, layer, res
	}
	s.routed, s.direct, s.handler = t1-t0, t3-t2, t5-t4
	if tr != nil {
		root := tr.add(id, 0, "client.routed", t0, t1)
		d := tr.add(id, root, "client.direct", t2, t3)
		h := tr.add(id, d, "service.handler", t4, t5)
		if engine != nil {
			tr.add(id, h, layer+".engine", t6, t7)
		}
	}
	return s, nil
}

// probes are the layer measurements: those the engine spans made, and the
// probes made off the request path, after an episode's replays, of the
// core and search layers on a request's operator when its answer did not
// already run them, and of the cost kernel.
type probes struct {
	optimizeNs, optimizeAllocs, considered []float64
	planNs                                 []float64
	searchNs, searchAllocs                 []float64
	evaluateNs, perEvalNs                  []float64
}

// kernels caches one candidate block per shape for the batch-kernel probe.
type kernels map[[3]int]*kernelBlock

type kernelBlock struct {
	k *cost.BatchEval
	b *cost.Block
}

// kernelBlockSize is the batch-kernel probe's block: the search engines'
// scan block size, or the whole coarse lattice when that is smaller.
const kernelBlockSize = 2048

func (ks kernels) get(mm op.MatMul) (*kernelBlock, error) {
	key := [3]int{mm.M, mm.K, mm.L}
	if kb, ok := ks[key]; ok {
		return kb, nil
	}
	orders := dataflow.AllOrders()
	k, err := cost.NewBatchEval(mm, orders)
	if err != nil {
		return nil, err
	}
	b := cost.NewBlock(kernelBlockSize)
fill:
	for oi := range orders {
		for _, tm := range search.TileGrid(mm.M) {
			for _, tk := range search.TileGrid(mm.K) {
				for _, tl := range search.TileGrid(mm.L) {
					if b.Full() {
						break fill
					}
					foot := int64(tm)*int64(tk) + int64(tk)*int64(tl) + int64(tm)*int64(tl)
					b.Push(uint8(oi), int32(tm), int32(tk), int32(tl), foot)
				}
			}
		}
	}
	kb := &kernelBlock{k, b}
	ks[key] = kb
	return kb, nil
}

const evaluateReps = 64

// record keeps what the sample's own engine call measured: its span's
// duration on a timed sample, its allocations on a counted one.
func (p *probes) record(s *sample, counted bool) {
	switch {
	case s.layer == "core" && s.req.Endpoint == epPlan:
		if !counted {
			p.planNs = append(p.planNs, float64(s.engine))
		}
	case s.layer == "core" && counted:
		p.optimizeAllocs = append(p.optimizeAllocs, float64(s.engAllocs))
	case s.layer == "core":
		p.optimizeNs = append(p.optimizeNs, float64(s.engine))
		p.considered = append(p.considered, float64(s.engineOut.considered))
	case s.layer == "search" && counted:
		p.searchAllocs = append(p.searchAllocs, float64(s.engAllocs))
	case s.layer == "search":
		p.searchNs = append(p.searchNs, float64(s.engine))
	}
}

// probe measures, off the request path, the layers the sample's engine span
// did not: core.Optimize on the request's operator unless the span was an
// optimize, core.PlanChain (with planProbe) unless it was a plan,
// search.OptimizeAnalytic unless it was a search engine, and the cost
// kernel always. Both optimizers keep no state, so each is timed on one
// call and its allocations are counted on a second (see heapAllocs).
func (p *probes) probe(ctx context.Context, s *sample, planProbe bool, ks kernels) error {
	r := s.req
	mm := matmul(r.Op)
	if s.layer != "core" || r.Endpoint == epPlan {
		t0 := time.Now()
		res, err := core.Optimize(mm, r.Buffer)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("core probe: %w", err)
		}
		a0 := heapAllocs()
		_, _ = core.Optimize(mm, r.Buffer)
		allocs := heapAllocs() - a0
		p.optimizeNs = append(p.optimizeNs, float64(d))
		p.optimizeAllocs = append(p.optimizeAllocs, float64(allocs))
		p.considered = append(p.considered, float64(len(res.Considered)))
	}
	if planProbe && !(s.layer == "core" && r.Endpoint == epPlan) {
		// The request's operator followed by its transpose-shaped
		// successor: for a decode shape, the QKᵀ → SV attention pair.
		probe := request{Endpoint: epPlan, Chain: "probe", Buffer: r.Buffer,
			Ops: []client.OpSpec{r.Op, {Name: "next", M: r.Op.M, K: r.Op.L, L: r.Op.K}}}
		t0 := time.Now()
		if _, err := planChain(&probe); err != nil {
			return fmt.Errorf("plan probe: %w", err)
		}
		p.planNs = append(p.planNs, float64(time.Since(t0)))
	}
	df := s.engineOut.df
	if s.layer != "search" {
		t0 := time.Now()
		res, err := search.OptimizeAnalyticCtx(ctx, mm, r.Buffer)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("search probe: %w", err)
		}
		a0 := heapAllocs()
		_, _ = search.OptimizeAnalyticCtx(ctx, mm, r.Buffer)
		allocs := heapAllocs() - a0
		p.searchNs = append(p.searchNs, float64(d))
		p.searchAllocs = append(p.searchAllocs, float64(allocs))
		if r.Endpoint == epPlan {
			df = res.Dataflow
		}
	}
	t0 := time.Now()
	for i := 0; i < evaluateReps; i++ {
		if _, err := cost.Evaluate(mm, df); err != nil {
			return fmt.Errorf("cost probe: %w", err)
		}
	}
	p.evaluateNs = append(p.evaluateNs, float64(time.Since(t0))/evaluateReps)
	kb, err := ks.get(mm)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	t0 = time.Now()
	kb.k.EvalBlock(kb.b)
	p.perEvalNs = append(p.perEvalNs, float64(time.Since(t0))/float64(kb.b.Len()))
	return nil
}

// probeCap bounds the requests of one traced episode that are probed off
// the request path, spread evenly over the episode's replays.
const probeCap = 64

// probeAll probes an evenly spaced subset of at most probeCap samples.
func (p *probes) probeAll(ctx context.Context, done []sample, planProbe bool, ks kernels) error {
	n := len(done)
	if n > probeCap {
		n = probeCap
	}
	for i := 0; i < n; i++ {
		if err := p.probe(ctx, &done[i*len(done)/n], planProbe, ks); err != nil {
			return err
		}
	}
	return nil
}

// batch draws the next n requests and their oracle, before any timing.
func batch(gen *generator, n int) ([]request, oracle, error) {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = gen.next()
	}
	want, err := buildOracle(reqs, fleetSize, false)
	return reqs, want, err
}

// baseline is the untraced serial phase of a traced run.
type baseline struct {
	latencyNs                     []float64
	attempted, failed, mismatched int
}

// serialBaseline sends requests one at a time through untraced fleets and
// records each routed latency; the traced run compares against it to report
// the tracing overhead.
func serialBaseline(ctx context.Context, w *workload, gen *generator, warmup []request, budget time.Duration) (baseline, error) {
	var b baseline
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		reqs, want, err := batch(gen, w.traceCap)
		if err != nil {
			return b, err
		}
		f, _, err := setUp(ctx, warmup)
		if err != nil {
			return b, err
		}
		for i := 0; i < len(reqs) && time.Now().Before(deadline); i++ {
			b.attempted++
			t0 := time.Now()
			out, err := call(ctx, f.cl, &reqs[i])
			d := time.Since(t0)
			switch {
			case err != nil:
				b.failed++
			case out.ma != want[keyOf(&reqs[i])]:
				b.mismatched++
			default:
				b.latencyNs = append(b.latencyNs, float64(d))
			}
		}
		f.stop()
	}
	return b, nil
}

// layerTimes accumulates per-request self times (ns) by layer.
type layerTimes struct {
	route, client, service, engine []float64
	routed                         []float64
	sum                            map[string]float64
}

// capAt is a child span's coverage of its parent: its duration, capped at
// the parent's.
func capAt(child, parent int64) int64 {
	if child > parent {
		return parent
	}
	return child
}

func (lt *layerTimes) add(s *sample) {
	if lt.sum == nil {
		lt.sum = map[string]float64{}
	}
	direct := capAt(s.direct, s.routed)
	handler := capAt(s.handler, direct)
	engine := int64(0)
	if s.engine >= 0 {
		engine = capAt(s.engine, handler)
	}
	self := map[string]int64{
		"route":   s.routed - direct,
		"client":  direct - handler,
		"service": handler - engine,
	}
	lt.route = append(lt.route, float64(self["route"]))
	lt.client = append(lt.client, float64(self["client"]))
	lt.service = append(lt.service, float64(self["service"]))
	lt.engine = append(lt.engine, float64(engine))
	lt.routed = append(lt.routed, float64(s.routed))
	if s.engine >= 0 {
		self[s.layer] = engine
	}
	for k, v := range self {
		lt.sum[k] += float64(v)
	}
	lt.sum["routed"] += float64(s.routed)
}

// countedShare: one request in countedShare of a traced batch, at its end,
// is counted rather than timed.
const countedShare = 4

// tracedRun replays the workload one request at a time and reports the
// per-layer split. A quarter of the time goes to an untraced serial
// baseline, the rest to traced episodes.
func tracedRun(ctx context.Context, w *workload, seed int64, seconds float64, outDir string, stderr io.Writer) (result, error) {
	gen, warmup := w.stream(seed)
	total := time.Duration(seconds * float64(time.Second))
	base, err := serialBaseline(ctx, w, gen, warmup, total/4)
	if err != nil {
		return result{}, err
	}

	runtime.GC()
	tr := &tracer{t0: time.Now()}
	var lt layerTimes
	var pr probes
	ks := kernels{}
	svc, rt := scrape{}, scrape{}
	var stats client.Stats
	var handlerUs, serviceAllocs, evals, hits []float64
	attempted, failed, mismatched, absent := base.attempted, base.failed, base.mismatched, 0
	// Requests come in batches, each with its oracle computed before the
	// batch's episode; a batch is what one episode can replay.
	deadline := time.Now().Add(total - total/4)
	for id := 1; time.Now().Before(deadline); {
		reqs, want, err := batch(gen, w.traceCap)
		if err != nil {
			return result{}, err
		}
		ts, err := setUpTraced(ctx, warmup)
		if err != nil {
			return result{}, err
		}
		// The first three quarters of a batch are timed; the rest are
		// replayed the same way but counted, without spans.
		timed := len(reqs) - len(reqs)/countedShare
		var done []sample
		for i := range reqs {
			if !time.Now().Before(deadline) {
				break
			}
			r := &reqs[i]
			counted := i >= timed
			attempted++
			spans := tr
			if counted {
				spans = nil
			}
			s, err := ts.replay(ctx, r, id, spans, counted)
			id++
			if err != nil {
				failed++
				fmt.Fprintf(stderr, "traced request %d: %v\n", id-1, err)
				continue
			}
			if s.routedOut.ma != want[keyOf(r)] {
				mismatched++
			}
			evals = append(evals, float64(s.routedOut.evals))
			hits = append(hits, float64(s.routedOut.cacheHits))
			pr.record(&s, counted)
			if counted {
				if s.engine >= 0 && s.handlerAllocs >= s.engAllocs {
					serviceAllocs = append(serviceAllocs, float64(s.handlerAllocs-s.engAllocs))
				}
				continue
			}
			if s.engine < 0 {
				absent++
			}
			lt.add(&s)
			handlerUs = append(handlerUs, float64(s.handler))
			done = append(done, s)
		}
		if err := scrapeFleet(ctx, ts.fleet, svc, rt); err != nil {
			ts.stop()
			return result{}, err
		}
		st := ts.cl.Stats()
		stats.Retries += st.Retries
		stats.TransportErrors += st.TransportErrors
		stats.Degraded += st.Degraded
		ts.stop()
		// The probes run after the episode's replays and their garbage is
		// collected before the next episode, so no span pays for it.
		if err := pr.probeAll(ctx, done, w.name != "prefill-compile", ks); err != nil {
			return result{}, err
		}
		runtime.GC()
	}
	if err := writeSpans(outDir, w.name, seed, tr.spans); err != nil {
		return result{}, err
	}
	return layerResult(w, seed, &lt, &pr, base.latencyNs, layerInputs{
		svc: svc, rt: rt, stats: stats, handlerNs: handlerUs, serviceAllocs: serviceAllocs,
		evals: evals, hits: hits, attempted: attempted, failed: failed, mismatched: mismatched, absent: absent,
	}, stderr)
}

func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", name, seed)), data, 0o644)
}
