package main

import (
	"fmt"
	"sync"

	"fusecu/internal/core"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// oracleKey identifies an answer: the operator (or chain) and the buffer.
// The engine does not enter: every exact engine must reach the same
// optimum.
type oracleKey struct {
	endpoint string
	chain    string
	m, k, l  int
	buffer   int64
}

func keyOf(r *request) oracleKey {
	k := oracleKey{endpoint: r.Endpoint, m: r.Op.M, k: r.Op.K, l: r.Op.L, buffer: r.Buffer}
	if r.Endpoint == epPlan {
		k = oracleKey{endpoint: epPlan, chain: r.Chain, buffer: r.Buffer}
	}
	if k.endpoint == epSearch {
		k.endpoint = epOptimize // the same exact optimum
	}
	return k
}

// oracle holds the expected memory access of every generated request,
// computed in-process before any timing.
type oracle map[oracleKey]int64

// buildOracle computes the exact optimum of each distinct request with
// search.OptimizeAnalytic (a plan's total with core.PlanChain) on `workers`
// goroutines. With crossCheck, each operator point is also solved by
// search.ReferenceExhaustive and must agree.
func buildOracle(reqs []request, workers int, crossCheck bool) (oracle, error) {
	todo := map[oracleKey]*request{}
	for i := range reqs {
		k := keyOf(&reqs[i])
		if _, ok := todo[k]; !ok {
			todo[k] = &reqs[i]
		}
	}
	type item struct {
		k oracleKey
		r *request
	}
	// Sized to every send, so the producer never blocks.
	items := make(chan item, len(todo))
	for k, r := range todo {
		items <- item{k, r}
	}
	close(items)
	out := oracle{}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				v, err := expected(it.r, crossCheck)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[it.k] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func expected(r *request, crossCheck bool) (int64, error) {
	if r.Endpoint == epPlan {
		ops := make([]op.MatMul, len(r.Ops))
		for i, o := range r.Ops {
			ops[i] = matmul(o)
		}
		c, err := op.NewChain(r.Chain, ops...)
		if err != nil {
			return 0, fmt.Errorf("oracle chain %s: %w", r.Chain, err)
		}
		p, err := core.PlanChain(c, r.Buffer)
		if err != nil {
			return 0, fmt.Errorf("oracle plan %s @%d: %w", r.Chain, r.Buffer, err)
		}
		return p.TotalMA, nil
	}
	mm := matmul(r.Op)
	a, err := search.OptimizeAnalytic(mm, r.Buffer)
	if err != nil {
		return 0, fmt.Errorf("oracle %v @%d: %w", mm, r.Buffer, err)
	}
	if crossCheck {
		ref, err := search.ReferenceExhaustive(mm, r.Buffer)
		if err != nil {
			return 0, fmt.Errorf("reference %v @%d: %w", mm, r.Buffer, err)
		}
		if ref.Access.Total != a.Access.Total {
			return 0, fmt.Errorf("oracle disagreement on %v @%d: analytic %d, reference %d",
				mm, r.Buffer, a.Access.Total, ref.Access.Total)
		}
	}
	return a.Access.Total, nil
}
