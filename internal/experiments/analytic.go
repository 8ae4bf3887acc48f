package experiments

import (
	"context"
	"fmt"

	"fusecu/internal/core"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// Fig9Analytic computes the validation sweep through the closed-form
// analytic optimizer alone: one compiled engine per operator, and per
// buffer point only the integer boundary candidates around each regime's
// interior optimum — no lattice scan, no evaluation cache, no randomness.
// The MA values match the lattice+polish engines point for point; the
// per-point SearchEvals are the analytic engine's own evaluation counts
// (tens, versus the GA polish's thousands), and SearchCacheHits is always
// zero, so the bench compares this column on MA only rather than on visit
// conservation.
func Fig9Analytic(ops []op.MatMul, buffers []int64) ([]Fig9Result, error) {
	return Fig9AnalyticCtx(context.Background(), ops, buffers)
}

// Fig9AnalyticCtx is Fig9Analytic with cooperative cancellation: when ctx
// is canceled the in-flight point stops at the engine's next poll and the
// sweep returns the error instead of a partial result set.
func Fig9AnalyticCtx(ctx context.Context, ops []op.MatMul, buffers []int64) ([]Fig9Result, error) {
	var results []Fig9Result
	for _, mm := range ops {
		r := Fig9Result{Op: mm}
		eng, err := search.NewAnalytic(mm)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9 analytic %v: %w", mm, err)
		}
		for _, bs := range buffers {
			pr, err := core.Optimize(mm, bs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 %v BS=%d: %w", mm, bs, err)
			}
			sr, err := eng.OptimizeCtx(ctx, bs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 analytic %v BS=%d: %w", mm, bs, err)
			}
			r.Points = append(r.Points, Fig9Point{
				BufferElems: bs,
				PrincipleMA: pr.Access.Total,
				SearchMA:    sr.Access.Total,
				Ideal:       mm.IdealMA(),
				SearchEvals: sr.Evaluations,
			})
		}
		results = append(results, r)
	}
	return results, nil
}
