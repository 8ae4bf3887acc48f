package search

import (
	"context"
	"fmt"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// SiteAnalytic is the fault-injection point visited once per analytic
// boundary candidate, before the shared per-evaluation SiteEval fires. Chaos
// tests arm it to prove the analytic engine's panic-containment boundary;
// the disarmed cost is one atomic load per candidate.
const SiteAnalytic = "search.analytic"

// This file is the analytic tile optimizer: the closed-form replacement for
// the genetic polish (ROADMAP item 3, mirroring FADiff's observation that
// fusion-aware schedules optimize by smooth relaxation rather than
// stochastic search). The cost model is piecewise affine in the trip counts
// n_D = ceil(D/T_D): fixing which trips exceed one — an "activity cell",
// eight per loop order — freezes every streaming condition, and
// cost.BatchEval.Regime exposes the cell's exact form
//
//	Total = base + coef_M·n_M + coef_K·n_K + coef_L·n_L
//
// with each coefficient either zero or a full tensor size. The innermost
// dim's coefficient is structurally zero (its tensor has no inner evicting
// loop), so every cell has at most two free positive-coefficient tiles and
// the per-cell optimization collapses:
//
//   - A non-multi dim is pinned at T = extent (n = 1 requires T ≥ extent).
//   - A multi dim with zero coefficient takes T = 1: it cannot change the
//     cell's cost and T = 1 maximizes the buffer slack left to the others.
//   - One free tile x under footprint x·a + x·b + a·b ≤ BS is monotone:
//     cost falls as x grows, so the single candidate is the largest
//     feasible x (clamped to extent−1 to stay inside the cell).
//   - Two free tiles (x, y) with third tile c minimize α/x + β/y over the
//     constraint (x+c)(y+c) ≤ BS+c². On the integer lattice the optimum
//     lies on the constraint's Pareto frontier: for any trip count n_x,
//     sliding x down to its plateau's left endpoint ceil(ext_x/n_x) keeps
//     the cost term fixed while loosening the constraint on y, so WLOG
//     x ∈ {ceil(ext_x/n) : n} (≈2√ext_x values) and y is the largest
//     feasible partner. The engine walks those boundary candidates over the
//     smaller extent with the plateau walk core and fusion share
//     (dataflow.NextPlateau), stopping at the first x that leaves no room,
//     so the enumeration is exact at every extent.
//
// Every candidate is priced exactly through the same cost.BatchEval kernel
// the enumeration engines use, so the result is a true lattice point with a
// bit-exact Access — no rounding error survives into the answer. The whole
// engine prices tens-to-hundreds of candidates per request where the GA
// polish priced Population×(Generations+1) ≈ 3,900.

// analyticBlockSize is the analytic engine's scan-block capacity. One call
// prices tens-to-hundreds of candidates, so a full 2048-row scan block
// (~190 KiB) would be mostly dead weight allocated per cold operator; 128
// rows (~12 KiB) hold a typical call in one or two flushes.
const analyticBlockSize = 128

// Analytic is the analytic optimizer compiled for one operator: the batch
// kernel, the per-order regime descriptors, and reusable scan scratch. One
// Analytic serves any number of sequential OptimizeCtx calls (buffer sweeps,
// the serve polish path) without allocating per call; it is not safe for
// concurrent use.
type Analytic struct {
	mm     op.MatMul
	ext    [3]int64
	orders []dataflow.Order
	kern   *cost.BatchEval
	scan   *blockScanner
	acc    enumBest
	stop   cancelCheck
}

// NewAnalytic validates mm and compiles the analytic optimizer for it.
func NewAnalytic(mm op.MatMul) (*Analytic, error) {
	orders := dataflow.AllOrders()
	kern, err := cost.NewBatchEval(mm, orders)
	if err != nil {
		return nil, err
	}
	a := &Analytic{
		mm:     mm,
		ext:    [3]int64{int64(mm.M), int64(mm.K), int64(mm.L)},
		orders: orders,
		kern:   kern,
	}
	a.scan = newBlockScanner(mm, 0, orders, kern, nil, &a.stop, &a.acc, analyticBlockSize)
	return a, nil
}

// OptimizeAnalytic derives the per-regime closed-form optima of the cost
// model under the footprint constraint, prices the integer boundary
// candidates around each through the batch kernel, and returns the best —
// no population, no generations, no randomness. See OptimizeAnalyticCtx.
func OptimizeAnalytic(mm op.MatMul, bufferSize int64) (Result, error) {
	return OptimizeAnalyticCtx(context.Background(), mm, bufferSize)
}

// OptimizeAnalyticCtx is OptimizeAnalytic under a cancelable context. The
// engine visits only tens-to-hundreds of candidates, so cancellation is
// checked once per candidate stride and once before the result is returned;
// Result.Evaluations counts the exact pricings (the engine is uncached —
// its boundary candidates are off-lattice points that almost never repeat),
// CacheHits is always zero, and Method is "analytic". Like every engine it
// is a panic-containment boundary: injected faults (SiteAnalytic, SiteEval)
// and organic cost-model panics return as ErrInternal.
func OptimizeAnalyticCtx(ctx context.Context, mm op.MatMul, bufferSize int64) (Result, error) {
	a, err := NewAnalytic(mm)
	if err != nil {
		return Result{}, err
	}
	return a.OptimizeCtx(ctx, bufferSize)
}

// OptimizeCtx runs the analytic optimization for one buffer size, reusing
// the compiled kernel and scratch (the steady state allocates nothing —
// pinned by BenchmarkAnalyticPolish).
func (a *Analytic) OptimizeCtx(ctx context.Context, bufferSize int64) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, panicError(r)
		}
	}()
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	a.acc = enumBest{}
	a.stop = cancelCheck{done: ctx.Done()}
	a.scan.bufferSize = bufferSize
	a.scan.blk.Reset() // drop any residue a contained panic left behind
	a.emitAll()
	a.scan.flush()
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("search: analytic scan canceled: %w", err)
	}
	if !a.acc.found {
		return Result{}, fmt.Errorf("search: no feasible dataflow for %v in buffer %d: %w", a.mm, bufferSize, errs.ErrInfeasible)
	}
	r := a.acc.best
	r.Method = "analytic"
	return r, nil
}

// push routes one boundary candidate into the block scanner, firing the
// analytic engine's own fault-injection site before the shared per-visit
// one. The caller guarantees foot ≤ bufferSize and 1 ≤ tile ≤ extent.
func (a *Analytic) push(oi int, tm, tk, tl int64, foot int64) {
	if err := faultinject.Active().Fire(SiteAnalytic); err != nil {
		panic(err)
	}
	a.scan.push(oi, int(tm), int(tk), int(tl), foot)
}

// emitCell pushes the candidate with the given per-slot tiles if it fits.
func (a *Analytic) emitCell(oi int, tiles [3]int64) {
	foot := invariant.CheckedMul(tiles[0], tiles[1]) +
		invariant.CheckedMul(tiles[1], tiles[2]) +
		invariant.CheckedMul(tiles[0], tiles[2])
	if foot <= a.scan.bufferSize {
		a.push(oi, tiles[0], tiles[1], tiles[2], foot)
	}
}

// emitAll generates every order's per-cell boundary candidates. The (1,1,1)
// seed keeps the feasibility contract identical to the enumeration engines:
// any buffer ≥ 3 admits it, so the engine returns ErrInfeasible exactly
// when they would.
func (a *Analytic) emitAll() {
	a.push(0, 1, 1, 1, 3)
	for oi := range a.orders {
		if a.stop.stopped() {
			return
		}
		a.emitOrder(oi)
	}
}

// emitOrder walks order oi's eight activity cells. For each cell the
// non-multi dims and zero-coefficient multi dims are pinned (extent and 1
// respectively) and the remaining one or two positive-coefficient tiles are
// optimized in closed form.
func (a *Analytic) emitOrder(oi int) {
	for mask := 0; mask < 8; mask++ {
		multi := [3]bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		empty := false
		for d := 0; d < 3; d++ {
			if multi[d] && a.ext[d] < 2 {
				empty = true // a unit extent cannot trip more than once
				break
			}
		}
		if empty {
			continue
		}
		base, coef := a.kern.Regime(uint8(oi), multi)
		var tiles [3]int64
		var free [2]int
		nFree := 0
		for d := 0; d < 3; d++ {
			switch {
			case !multi[d]:
				tiles[d] = a.ext[d]
			case coef[d] == 0:
				tiles[d] = 1
			default:
				invariant.Assert(nFree < 2,
					"search: analytic cell %03b of order %d has >2 free tiles", mask, oi)
				free[nFree] = d
				nFree++
			}
		}
		switch nFree {
		case 0:
			a.emitCell(oi, tiles)
		case 1:
			a.emitOne(oi, tiles, free[0])
		case 2:
			// Stationary-swap pairs share the innermost dim, so their
			// two-variable cells describe the same affine problem; emit it
			// once under the pair's lower order index (the canonical
			// tie-break winner).
			if oi%2 == 1 {
				pb, pc := a.kern.Regime(uint8(oi-1), multi)
				if pb == base && pc == coef {
					continue
				}
			}
			a.emitTwo(oi, tiles, free[0], free[1])
		}
	}
}

// emitOne handles a cell with a single free positive-coefficient tile x:
// cost base + coef·ceil(ext/x) falls as x grows while the footprint rises,
// so the one candidate is the largest feasible x, clamped to extent−1 to
// keep the trip count above one (the cell's defining condition).
func (a *Analytic) emitOne(oi int, tiles [3]int64, d int) {
	o1, o2 := tiles[(d+1)%3], tiles[(d+2)%3]
	rest := invariant.CheckedMul(o1, o2)
	if rest >= a.scan.bufferSize {
		return // no room for even x = 1
	}
	x := (a.scan.bufferSize - rest) / (o1 + o2)
	if x > a.ext[d]-1 {
		x = a.ext[d] - 1
	}
	if x < 1 {
		return
	}
	tiles[d] = x
	a.emitCell(oi, tiles)
}

// emitTwo handles a cell with two free positive-coefficient tiles. It
// enumerates the Pareto frontier over the smaller-extent dim e: each
// achievable trip count's plateau left endpoint x (dataflow.NextPlateau,
// ascending from x = 1), paired with the largest partner tile the footprint
// admits, up to the largest in-cell tile (trip count two). The partner
// budget shrinks as x grows, so the walk stops at the first x that leaves
// no room: it prices at most min(2√ext_e, the feasible tile range)
// candidates and is exact.
func (a *Analytic) emitTwo(oi int, tiles [3]int64, d1, d2 int) {
	e, p := d1, d2
	if a.ext[d2] < a.ext[d1] {
		e, p = d2, d1
	}
	exE := int(a.ext[e])
	for x := 1; x < exE && a.emitPair(oi, tiles, e, int64(x), p); {
		x = dataflow.NextPlateau(exE, x, 1)
	}
}

// emitPair fixes the enumerated tile x on dim e and pairs it with the
// largest partner tile on dim p the footprint admits, clamped into the
// cell's range [1, extent−1]. It reports false when even a unit partner
// overflows the buffer.
func (a *Analytic) emitPair(oi int, tiles [3]int64, e int, x int64, p int) bool {
	t3 := tiles[3-e-p]
	num := a.scan.bufferSize - invariant.CheckedMul(t3, x)
	den := x + t3
	if num < den {
		return false // even y = 1 overflows
	}
	y := num / den
	if y > a.ext[p]-1 {
		y = a.ext[p] - 1
	}
	tiles[e], tiles[p] = x, y
	a.emitCell(oi, tiles)
	return true
}
