package main

import (
	"fmt"
	"math/rand"

	"fusecu/client"
	"fusecu/internal/experiments"
	"fusecu/internal/model"
	"fusecu/internal/op"
)

// Endpoints a generated request may target.
const (
	epOptimize = "optimize"
	epPlan     = "plan"
	epSearch   = "search"
)

// request is one generated call. The program under test sees only the wire
// request built from it; the remaining fields let the harness pick the
// oracle and the layer probes.
type request struct {
	Endpoint string          `json:"endpoint"`
	Op       client.OpSpec   `json:"op"` // the operator; a plan's first operator
	Chain    string          `json:"chain,omitempty"`
	Ops      []client.OpSpec `json:"ops,omitempty"`
	Buffer   int64           `json:"buffer"`
	Engine   string          `json:"engine,omitempty"`
}

// workload is one seeded request stream plus the schedule the benchmark
// drives it with. A run is a sequence of episodes; each boots and warms a
// fresh fleet `setups` times, sends `open` requests at `rate` per second to
// the last one (open loop), samples the heap, then sends about `closedN`
// requests back to back from fleetSize clients (closed loop) and tears the
// fleet down.
type workload struct {
	name string
	// rate is the open-loop arrival rate; throughput is the seed's
	// closed-loop throughput on the reference box (2 vCPUs) and setupSeconds
	// the time of one set-up there, which set the nominal length of an
	// episode.
	rate, throughput, setupSeconds float64
	open, closedN                  int
	setups                         int
	// passLen is the length of one pass of the stream: the closed-loop
	// segments of a run add up to whole passes.
	passLen int
	// strata is how many consecutive open segments make one pass, when a
	// pass is built that way: a run's episode count is a multiple of it, so
	// its open loop sends whole passes.
	strata int
	// traceCap bounds the requests one traced episode replays. It keeps the
	// four copies of the fleet state a traced episode holds small.
	traceCap int
	// stream returns the seeded request generator and the warm-up set.
	stream func(seed int64) (*generator, []request)
}

// episodeSeconds is the nominal time of one episode, set-ups included.
func (w *workload) episodeSeconds() float64 {
	return float64(w.setups)*w.setupSeconds + float64(w.open)/w.rate + float64(w.closedN)/w.throughput
}

// episodes is how many episodes fill a run of the given length: the
// nearest multiple of strata, and at least 3, so a median over episodes
// rejects one slowed episode.
func (w *workload) episodes(seconds float64) int {
	n := int(seconds/(w.episodeSeconds()*float64(w.strata))+0.5) * w.strata
	for n < 3 {
		n += w.strata
	}
	return n
}

var workloads = map[string]*workload{
	"prefill-compile": {
		name: "prefill-compile", rate: 10, throughput: 95, setupSeconds: 0.04,
		open: prefillStratum, closedN: 2 * prefillPass / prefillStrata, setups: 3,
		passLen: prefillPass, strata: prefillStrata, traceCap: 100,
		stream: prefillStream,
	},
	"search-hot": {
		name: "search-hot", rate: 1800, throughput: 7500, setupSeconds: 1.2,
		open: 3645, closedN: 13500, setups: 1,
		passLen: 135, strata: 1, traceCap: 20000,
		stream: searchHotStream,
	},
	"decode-cold": {
		name: "decode-cold", rate: 60, throughput: 650, setupSeconds: 0.08,
		open: 240, closedN: 672, setups: 3,
		passLen: 24, strata: 1, traceCap: 250,
		stream: decodeColdStream,
	},
}

// closedSizes splits the closed-loop requests of a run over its episodes.
// Together they are the whole number of passes nearest to episodes·closedN
// (at least one), so throughput is measured on the same mix every run.
func (w *workload) closedSizes(episodes int) []int {
	passes := (episodes*w.closedN + w.passLen/2) / w.passLen
	if passes < 1 {
		passes = 1
	}
	total := passes * w.passLen
	sizes := make([]int, episodes)
	for e := range sizes {
		sizes[e] = total*(e+1)/episodes - total*e/episodes
	}
	return sizes
}

// generator is a seeded request stream made of passes; each pass is a
// fixed multiset of requests in a seeded order, so runs with different
// seeds send the same mix in a different order.
type generator struct {
	next func() request
	// newPass drops the rest of the current pass.
	newPass func()
}

func opSpec(mm op.MatMul) client.OpSpec {
	return client.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L}
}

func matmul(o client.OpSpec) op.MatMul {
	return op.MatMul{Name: o.Name, M: o.M, K: o.K, L: o.L}
}

// cycler turns a seeded pass builder into an endless generator.
func cycler(pass func() []request) *generator {
	var buf []request
	return &generator{
		next: func() request {
			if len(buf) == 0 {
				buf = pass()
			}
			r := buf[0]
			buf = buf[1:]
			return r
		},
		newPass: func() { buf = nil },
	}
}

func shuffle(rng *rand.Rand, rs []request) []request {
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// tableIIChains returns the distinct operator chains of the Table II
// models, deduplicated by their shapes and named after their first model.
func tableIIChains() ([]*op.Chain, error) {
	seen := map[string]bool{}
	var out []*op.Chain
	for _, cfg := range model.TableII() {
		w, err := cfg.Build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", cfg.Name, err)
		}
		for _, wc := range w.Chains {
			key := fmt.Sprint(wc.Chain.Ops)
			if seen[key] {
				continue
			}
			seen[key] = true
			c := *wc.Chain
			c.Name = cfg.Name + "/" + wc.Chain.Name
			out = append(out, &c)
		}
	}
	return out, nil
}

func planRequest(c *op.Chain, buffer int64) request {
	ops := make([]client.OpSpec, len(c.Ops))
	for i, mm := range c.Ops {
		ops[i] = opSpec(mm)
	}
	return request{Endpoint: epPlan, Op: ops[0], Chain: c.Name, Ops: ops, Buffer: buffer}
}

// A prefill pass is prefillStrata strata of prefillStratum requests each;
// one episode's open loop sends one stratum.
const (
	prefillStrata  = 4
	prefillStratum = 71
	prefillPass    = prefillStrata * prefillStratum
)

// prefillStream: what a compiler sends while mapping a transformer's
// prefill. A pass holds every third (Table II + Fig. 11 shape, Fig. 9
// buffer) /v1/optimize point, so each of the 58 shapes comes with three or
// four of the buffers, plus a third as many /v1/plan points spread over the
// Table II chains and buffers: 213 optimize and 71 plan requests. The pass
// is dealt round-robin into prefillStrata fixed strata of mixed cost and
// sent stratum by stratum, each in a seeded order. Only the order depends
// on the seed, so every run's open loop times the same requests.
func prefillStream(seed int64) (*generator, []request) {
	shapes, err := experiments.TableIIShapes()
	if err != nil {
		panic(err) // the shape tables are static; a failure is a bug
	}
	chains, err := tableIIChains()
	if err != nil {
		panic(err)
	}
	bufs := experiments.Fig9Buffers()
	var opt, plan []request
	for _, mm := range shapes {
		for _, b := range bufs {
			opt = append(opt, request{Endpoint: epOptimize, Op: opSpec(mm), Buffer: b})
		}
	}
	for _, c := range chains {
		for _, b := range bufs {
			plan = append(plan, planRequest(c, b))
		}
	}
	var points []request
	for i := 0; i < len(opt); i += 3 {
		points = append(points, opt[i])
	}
	nPlan := prefillPass - len(points)
	for i := 0; i < nPlan; i++ {
		points = append(points, plan[i*len(plan)/nPlan])
	}
	strata := make([][]request, prefillStrata)
	for i, r := range points {
		strata[i%prefillStrata] = append(strata[i%prefillStrata], r)
	}
	rng := rand.New(rand.NewSource(seed))
	next := cycler(func() []request {
		var pass []request
		for _, st := range strata {
			pass = append(pass, shuffle(rng, append([]request(nil), st...))...)
		}
		return pass
	})
	// Warm-up: the cheapest shapes and single-operator chains, so set-up
	// opens connections and pages in code without running the long tail.
	warm := []request{
		{Endpoint: epOptimize, Op: opSpec(shapes[0]), Buffer: bufs[len(bufs)-1]},
		{Endpoint: epOptimize, Op: opSpec(shapes[1]), Buffer: bufs[len(bufs)-1]},
		planRequest(chains[0], bufs[len(bufs)-1]),
		planRequest(chains[1], bufs[len(bufs)-1]),
	}
	return next, warm
}

// searchHotBuffers are search-hot's fixed buffer sizes (elements): below,
// near and above the serve-load shapes' total size.
var searchHotBuffers = []int64{512, 1024, 4096}

// searchHotStream: repeated small shapes. Each pass sends every
// (serve-load shape, buffer) point four times with the exhaustive engine
// and once with the default auto engine.
func searchHotStream(seed int64) (*generator, []request) {
	var point, warm []request
	for _, mm := range experiments.ServeLoadOps() {
		for _, b := range searchHotBuffers {
			ex := request{Endpoint: epSearch, Op: opSpec(mm), Buffer: b, Engine: "exhaustive"}
			auto := request{Endpoint: epSearch, Op: opSpec(mm), Buffer: b}
			point = append(point, ex, ex, ex, ex, auto)
			warm = append(warm, ex, auto)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return cycler(func() []request { return shuffle(rng, append([]request(nil), point...)) }), warm
}

// decodeKV is where decode-cold's kv values start. A search's cost depends
// on kv's divisors, not only its size (1.3 ms at kv = 1024, 3.9 ms at 3000 on
// the reference box), so the seed moves the start only within
// decodeKVWindow: every run's kv values overlap almost entirely and its
// open-loop latency is taken on the same mix of shapes.
const (
	decodeKV       = 1024
	decodeKVWindow = 64
)

// decodeColdStream: decode attention shapes [g,128,kv] and [g,kv,128] for
// g in {1,4,8} with the auto engine. kv grows by one per request from a
// seeded start, so no shape repeats; each pass of 24 requests covers every
// (g, orientation, buffer) combination once in a seeded order. The warm-up
// is the same for every seed and uses kv values below any start.
func decodeColdStream(seed int64) (*generator, []request) {
	rng := rand.New(rand.NewSource(seed))
	start := decodeKV + rng.Intn(decodeKVWindow)
	bufs := experiments.Fig9Buffers()[:4]
	type combo struct {
		g, orient int
		buf       int64
	}
	var combos []combo
	for _, g := range []int{1, 4, 8} {
		for orient := 0; orient < 2; orient++ {
			for _, b := range bufs {
				combos = append(combos, combo{g, orient, b})
			}
		}
	}
	mk := func(c combo, kv int) request {
		o := client.OpSpec{Name: "QKt", M: c.g, K: 128, L: kv}
		if c.orient == 1 {
			o = client.OpSpec{Name: "SV", M: c.g, K: kv, L: 128}
		}
		return request{Endpoint: epSearch, Op: o, Buffer: c.buf}
	}
	var warm []request
	for i, c := range combos {
		warm = append(warm, mk(c, decodeKV-len(combos)+i))
	}
	kv := start
	var pass []combo
	next := func() request {
		if len(pass) == 0 {
			pass = append([]combo(nil), combos...)
			rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		}
		r := mk(pass[0], kv)
		pass = pass[1:]
		kv++
		return r
	}
	return &generator{next: next, newPass: func() { pass = nil }}, warm
}
