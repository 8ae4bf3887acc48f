package core

import (
	"sort"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/op"
)

// walkBlock is the pricer's block capacity. A frontier walk prices at most
// about 2√extent candidates, so a few flushes cover the largest extents.
const walkBlock = 32

// pricer prices the frontier walks of one operator through a cost.BatchEval
// compiled once for the canonical orders, reusing one Block for every walk.
// The kernel keeps Evaluate's tile-bound and lower-bound assertions and is
// bit-identical to it.
type pricer struct {
	mm   op.MatMul
	kern *cost.BatchEval
	blk  cost.Block

	// The running first minimum of the walk being priced.
	found      bool
	acc        cost.Access
	tm, tk, tl int32

	// The block's backing arrays, so a pricer is one allocation.
	oi   [walkBlock]uint8
	tms  [walkBlock]int32
	tks  [walkBlock]int32
	tls  [walkBlock]int32
	foot [walkBlock]int64
	out  [walkBlock]cost.Access
}

func newPricer(mm op.MatMul) (*pricer, error) {
	kern, err := cost.NewBatchEval(mm, canonicalOrders)
	if err != nil {
		return nil, err
	}
	p := &pricer{mm: mm, kern: kern}
	p.blk = cost.Block{
		OI: p.oi[:0], TM: p.tms[:0], TK: p.tks[:0], TL: p.tls[:0],
		Foot: p.foot[:0], Out: p.out[:0],
	}
	return p, nil
}

// frontierWalk is one stationary tensor's (T_d1, T_d2) frontier under a
// constraint. T_d1 runs over the ascending lattice S = {q, 2q, …} below
// cap1, then cap1; the third tile is pinned at t3.
type frontierWalk struct {
	c             Constraint
	bufferSize    int64
	stationary    dataflow.Tensor
	d1, d2, third dataflow.Dim
	ext1, ext2    int
	cap1, cap2    int
	t3, q         int
}

// budget returns the largest T_d2 the buffer and cap2 admit next to t1,
// before the Square and lattice rules: t1·t2 + t1·t3 + t2·t3 ≤ BS ⇒
// t2 ≤ (BS − t1·t3)/(t1 + t3).
func (w *frontierWalk) budget(t1 int) int64 {
	lim := (w.bufferSize - int64(t1)*int64(w.t3)) / (int64(t1) + int64(w.t3))
	if lim > int64(w.cap2) {
		lim = int64(w.cap2)
	}
	return lim
}

// partner returns the T_d2 paired with t1, or 0 when t1 leaves no room.
func (w *frontierWalk) partner(t1 int) int {
	lim := w.budget(t1)
	if lim < 1 {
		return 0
	}
	if w.c.Square && lim > int64(t1) && t1 < w.cap1 {
		// Square arrays stream equal-sized blocks in both directions;
		// a dimension may only exceed its partner when the partner is
		// clamped by its extent.
		lim = int64(t1)
	}
	return w.c.snapDown(int(lim), w.ext2)
}

// size is |S|; at(i) is S's i-th element, 1-based.
func (w *frontierWalk) size() int { return (w.cap1-1)/w.q + 1 }

func (w *frontierWalk) at(i int) int {
	if t := i * w.q; t < w.cap1 {
		return t
	}
	return w.cap1
}

// risingArm returns how many leading points of S lie on the Square rule's
// rising arm, where the budget is at least T_d1 and the partner therefore
// grows with it. The budget falls as T_d1 grows, so the arm is a prefix.
func (w *frontierWalk) risingArm() int {
	if !w.c.Square {
		return 0
	}
	return sort.Search(w.size(), func(j int) bool {
		t1 := w.at(j + 1)
		return w.budget(t1) < int64(t1)
	})
}

// frontier returns the first minimum-MA point of the stationary tensor's
// frontier in ascending T_d1 order — the point a sweep over all of S with a
// strict < would keep — as its tiling and access.
//
// The cost depends on T_d1 and T_d2 only through their trip counts and never
// falls as a trip count grows. Off the Square rising arm the partner shrinks
// as T_d1 grows, so within each ceil plateau of T_d1 the plateau's first
// point is never worse than the rest, and the walk prices just those points
// (dataflow.NextPlateau), about 2√ext1 of them, stopping at the first T_d1
// that leaves no room. On the rising arm the partner grows with T_d1, so the
// cost only falls along the arm: its minimum is at the arm's last point, and
// a binary search finds the first point that prices as low.
func (p *pricer) frontier(w *frontierWalk) (dataflow.Tiling, cost.Access, bool) {
	p.found = false
	p.blk.Reset()
	n, i := w.size(), 1
	if arm := w.risingArm(); arm > 0 {
		if last, fits := p.probe(w, w.at(arm)); fits {
			first := sort.Search(arm, func(j int) bool {
				a, _ := p.probe(w, w.at(j+1))
				return a.Total <= last.Total
			})
			p.push(w, w.at(first+1))
		}
		i = arm + 1
	}
	if i <= n {
		for t := w.at(i); p.push(w, t) && t < w.cap1; {
			if t = dataflow.NextPlateau(w.ext1, t, w.q); t == 0 || t > w.cap1 {
				t = w.cap1
			}
		}
	}
	p.flush()
	var ti dataflow.Tiling
	if !p.found {
		return ti, cost.Access{}, false
	}
	return dataflow.MustTiling(p.mm, int(p.tm), int(p.tk), int(p.tl)), p.acc, true
}

// candidate stages the frontier point at t1 in the block, reporting false
// when t1 leaves no room for its partner.
func (p *pricer) candidate(w *frontierWalk, t1 int) bool {
	t2 := w.partner(t1)
	if t2 == 0 {
		return false
	}
	var tiles [3]int32
	tiles[w.d1], tiles[w.d2], tiles[w.third] = int32(t1), int32(t2), int32(w.t3)
	foot := int64(t1)*int64(t2) + int64(t1)*int64(w.t3) + int64(t2)*int64(w.t3)
	p.blk.Push(uint8(w.stationary), tiles[0], tiles[1], tiles[2], foot)
	return true
}

// push adds the point at t1 to the walk, pricing the block when it fills.
func (p *pricer) push(w *frontierWalk, t1 int) bool {
	if !p.candidate(w, t1) {
		return false
	}
	if p.blk.Full() {
		p.flush()
	}
	return true
}

// probe prices the point at t1 on its own, outside the walk's running
// minimum. The block must be empty.
func (p *pricer) probe(w *frontierWalk, t1 int) (cost.Access, bool) {
	if !p.candidate(w, t1) {
		return cost.Access{}, false
	}
	p.kern.EvalBlock(&p.blk)
	a := p.blk.Out[0]
	p.blk.Reset()
	return a, true
}

// flush prices the staged points and folds them, in push order, into the
// running first minimum.
func (p *pricer) flush() {
	p.kern.EvalBlock(&p.blk)
	for i := range p.blk.Out {
		if a := &p.blk.Out[i]; !p.found || a.Total < p.acc.Total {
			p.found, p.acc = true, *a
			p.tm, p.tk, p.tl = p.blk.TM[i], p.blk.TK[i], p.blk.TL[i]
		}
	}
	p.blk.Reset()
}
