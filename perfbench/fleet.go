package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fusecu/client"
	"fusecu/internal/route"
	"fusecu/internal/service"
)

// fleetSize is the number of replicas behind the router and the number of
// sender goroutines: the core count of the reference box (nproc = 2). It is
// fixed so that a run means the same thing on every host.
const fleetSize = 2

// replica is one in-process fusecu-serve instance with default settings.
type replica struct {
	svc  *service.Server
	srv  *http.Server
	url  string
	done chan error
}

func startReplica() (*replica, error) {
	svc := service.New(service.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replica listen: %w", err)
	}
	r := &replica{svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	svc.SetReady(true)
	go func() { r.done <- r.srv.Serve(ln) }()
	return r, nil
}

func (r *replica) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		// Shutdown only fails on its deadline; force the close and wait.
		_ = r.srv.Close()
	}
	<-r.done
}

// fleet is fleetSize replicas behind fusecu-route, with client and router
// defaults, reached through the public client package.
type fleet struct {
	replicas []*replica
	router   *route.Router
	rsrv     *http.Server
	rdone    chan error
	url      string // the router's base URL
	cl       *client.Client
}

// bootFleet starts the replicas and the router and checks the backends.
// On error everything already started is stopped.
func bootFleet(ctx context.Context) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, 0, fleetSize)
	for i := 0; i < fleetSize; i++ {
		r, err := startReplica()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
		urls = append(urls, r.url)
	}
	router, err := route.New(route.Config{Backends: urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	if err := router.CheckBackends(ctx); err != nil {
		f.stop()
		return nil, fmt.Errorf("check backends: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	f.router = router
	f.rsrv = &http.Server{Handler: router.Handler()}
	f.rdone = make(chan error, 1)
	f.url = "http://" + ln.Addr().String()
	go func() { f.rdone <- f.rsrv.Serve(ln) }()
	if f.cl, err = client.New(client.Config{BaseURL: f.url}); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) stop() {
	if f.rsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := f.rsrv.Shutdown(ctx); err != nil {
			_ = f.rsrv.Close()
		}
		cancel()
		<-f.rdone
	}
	for _, r := range f.replicas {
		r.stop()
	}
	// Pooled keep-alive connections to the stopped listeners are dead.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// outcome is what one call returned: the memory access the oracle checks
// (a plan's total), the reported method, and the evaluation counts.
type outcome struct {
	ma        int64
	method    string
	evals     int64
	cacheHits int64
}

// payload is the wire request the client sends for r.
func (r *request) payload() any {
	switch r.Endpoint {
	case epOptimize:
		return client.OptimizeRequest{Op: r.Op, Buffer: r.Buffer}
	case epPlan:
		return client.PlanRequest{Name: r.Chain, Ops: r.Ops, Buffer: r.Buffer}
	}
	return client.SearchRequest{Op: r.Op, Buffer: r.Buffer, Engine: r.Engine}
}

// call sends r through cl and reduces the answer to an outcome.
func call(ctx context.Context, cl *client.Client, r *request) (outcome, error) {
	switch req := r.payload().(type) {
	case client.OptimizeRequest:
		resp, err := cl.Optimize(ctx, req)
		if err != nil {
			return outcome{}, err
		}
		return outcome{ma: resp.Dataflow.MemoryAccess, method: "principle"}, nil
	case client.PlanRequest:
		resp, err := cl.Plan(ctx, req)
		if err != nil {
			return outcome{}, err
		}
		return outcome{ma: resp.TotalMA, method: "plan"}, nil
	default:
		resp, err := cl.Search(ctx, req.(client.SearchRequest))
		if err != nil {
			return outcome{}, err
		}
		m := resp.Method
		if resp.Degraded {
			m = "principle"
		}
		return outcome{ma: resp.Dataflow.MemoryAccess, method: m, evals: resp.Evaluations, cacheHits: resp.CacheHits}, nil
	}
}

// warm sends the warm-up set serially; any failure aborts set-up.
func warm(ctx context.Context, cl *client.Client, reqs []request) error {
	for i := range reqs {
		if _, err := call(ctx, cl, &reqs[i]); err != nil {
			return fmt.Errorf("warm-up %s %v: %w", reqs[i].Endpoint, reqs[i].Op, err)
		}
	}
	return nil
}

// setUp boots a fleet and warms it, returning the time it took.
func setUp(ctx context.Context, warmup []request) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := bootFleet(ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := warm(ctx, f.cl, warmup); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(t0), nil
}

// scrape is one /metrics exposition parsed into name → value. A name the
// exposition does not carry is absent: get reports ok=false, never 0, so a
// renamed or removed counter cannot read as an improvement.
type scrape map[string]float64

func (s scrape) get(name string) (float64, bool) {
	v, ok := s[name]
	return v, ok
}

// parseExposition reads "name value" sample lines; bucket lines with labels
// and comments are skipped.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrapeURL fetches base+"/metrics".
func scrapeURL(ctx context.Context, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// add sums o into s; a name is present when any scrape had it. High-water
// marks (the _high gauges) take the maximum instead.
func (s scrape) add(o scrape) {
	for k, v := range o {
		if strings.HasSuffix(k, "_high") {
			s[k] = math.Max(s[k], v)
			continue
		}
		s[k] += v
	}
}

// scrapeFleet adds every replica's exposition to svc and the router's to
// rt.
func scrapeFleet(ctx context.Context, f *fleet, svc, rt scrape) error {
	for _, r := range f.replicas {
		s, err := scrapeURL(ctx, r.url)
		if err != nil {
			return err
		}
		svc.add(s)
	}
	s, err := scrapeURL(ctx, f.url)
	if err != nil {
		return err
	}
	rt.add(s)
	return nil
}
