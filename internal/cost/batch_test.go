package cost

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// batchShapes covers square-ish Table-II style operators plus the skewed
// decode-style shapes (M=1 GEMV, tiny-K, small-L) and full degenerates the
// block path must stay exact on.
var batchShapes = []op.MatMul{
	{Name: "proj", M: 256, K: 192, L: 192},
	{Name: "qkt", M: 256, K: 32, L: 256},
	{Name: "ragged", M: 7, K: 13, L: 31},
	{Name: "gemv", M: 1, K: 4096, L: 4096},
	{Name: "moe-tinyk", M: 64, K: 2, L: 512},
	{Name: "gqa-smalll", M: 512, K: 128, L: 3},
	{Name: "colvec", M: 4096, K: 4096, L: 1},
	{Name: "dot", M: 1, K: 4096, L: 1},
	{Name: "scalar", M: 1, K: 1, L: 1},
}

// tileLattice returns a small divisor-ish lattice over [1, ext] including
// both endpoints and ragged (non-dividing) tiles.
func tileLattice(ext int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(v int) {
		if v >= 1 && v <= ext && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := 1; v <= ext; v *= 2 {
		add(v)
		add(v + 1)
	}
	add(ext)
	add(ext - 1)
	add(ext/3 + 1)
	return out
}

// TestBatchEvalMatchesEvaluate pins bit-identity of the batch kernel against
// the scalar Evaluate across every shape, order, and a ragged tile lattice —
// every Access field must match exactly.
func TestBatchEvalMatchesEvaluate(t *testing.T) {
	orders := dataflow.AllOrders()
	for _, mm := range batchShapes {
		kern, err := NewBatchEval(mm, orders)
		if err != nil {
			t.Fatalf("NewBatchEval(%v): %v", mm, err)
		}
		blk := NewBlock(64)
		var want []Access
		flush := func() {
			t.Helper()
			kern.EvalBlock(blk)
			for i := range want {
				if blk.Out[i] != want[i] {
					t.Fatalf("%v candidate %d (oi=%d tm=%d tk=%d tl=%d): batch %+v, Evaluate %+v",
						mm, i, blk.OI[i], blk.TM[i], blk.TK[i], blk.TL[i], blk.Out[i], want[i])
				}
			}
			blk.Reset()
			want = want[:0]
		}
		for oi, o := range orders {
			for _, tm := range tileLattice(mm.M) {
				for _, tk := range tileLattice(mm.K) {
					for _, tl := range tileLattice(mm.L) {
						df := dataflow.Must(mm, o, dataflow.MustTiling(mm, tm, tk, tl))
						if blk.Full() {
							flush()
						}
						blk.Push(uint8(oi), int32(tm), int32(tk), int32(tl), df.Tiling.Footprint())
						want = append(want, MustEvaluate(mm, df))
					}
				}
			}
		}
		flush()
	}
}

// TestBatchEvalIndexed checks that EvalIndexed fills exactly the requested
// indices and leaves the rest untouched — the cache-miss residue contract.
func TestBatchEvalIndexed(t *testing.T) {
	mm := op.MatMul{Name: "idx", M: 37, K: 53, L: 29}
	orders := dataflow.AllOrders()
	kern, err := NewBatchEval(mm, orders)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	blk := NewBlock(128)
	for i := 0; i < 128; i++ {
		oi := uint8(rng.Intn(len(orders)))
		tm, tk, tl := 1+rng.Intn(mm.M), 1+rng.Intn(mm.K), 1+rng.Intn(mm.L)
		df := dataflow.Must(mm, orders[oi], dataflow.MustTiling(mm, tm, tk, tl))
		blk.Push(oi, int32(tm), int32(tk), int32(tl), df.Tiling.Footprint())
	}
	var idx []int32
	for i := 0; i < blk.Len(); i += 3 {
		idx = append(idx, int32(i))
	}
	kern.EvalIndexed(blk, idx)
	picked := map[int32]bool{}
	for _, i := range idx {
		picked[i] = true
	}
	for i := 0; i < blk.Len(); i++ {
		df := dataflow.Must(mm, orders[blk.OI[i]], dataflow.MustTiling(mm, int(blk.TM[i]), int(blk.TK[i]), int(blk.TL[i])))
		if picked[int32(i)] {
			if want := MustEvaluate(mm, df); blk.Out[i] != want {
				t.Fatalf("indexed candidate %d: got %+v want %+v", i, blk.Out[i], want)
			}
		} else if (blk.Out[i] != Access{}) {
			t.Fatalf("unrequested candidate %d was written: %+v", i, blk.Out[i])
		}
	}
}

// TestBatchEvalStationary checks the kernel re-exports each order's rotation
// class correctly.
func TestBatchEvalStationary(t *testing.T) {
	orders := dataflow.AllOrders()
	kern, err := NewBatchEval(op.MatMul{Name: "s", M: 8, K: 8, L: 8}, orders)
	if err != nil {
		t.Fatal(err)
	}
	for oi, o := range orders {
		if got, want := kern.Stationary(uint8(oi)), o.Stationary().Kind(); got != want {
			t.Fatalf("order %v: Stationary=%v want %v", o, got, want)
		}
	}
}

// TestNewBatchEvalRejects checks construction-time validation: bad operator,
// empty order list, malformed order.
func TestNewBatchEvalRejects(t *testing.T) {
	if _, err := NewBatchEval(op.MatMul{Name: "bad", M: 0, K: 1, L: 1}, dataflow.AllOrders()); err == nil {
		t.Fatal("invalid operator accepted")
	}
	if _, err := NewBatchEval(op.MatMul{Name: "ok", M: 4, K: 4, L: 4}, nil); err == nil {
		t.Fatal("empty order list accepted")
	}
	bad := []dataflow.Order{{dataflow.DimM, dataflow.DimM, dataflow.DimK}}
	if _, err := NewBatchEval(op.MatMul{Name: "ok", M: 4, K: 4, L: 4}, bad); err == nil {
		t.Fatal("duplicate-dim order accepted")
	}
	// Block tiles are int32, so a larger extent cannot be priced.
	wide := op.MatMul{Name: "wide", M: 4, K: math.MaxInt32 + 1, L: 4}
	if _, err := NewBatchEval(wide, dataflow.AllOrders()); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Fatalf("extent above int32 gave %v, want ErrInvalidOperator", err)
	}
}

// TestEvalBlockZeroAllocs pins the per-block steady state at zero
// allocations: one EvalBlock call over a reused block must not allocate.
// Under -tags=fusecuchecks the per-candidate assertions format their
// arguments, so the zero budget only holds on the production build.
func TestEvalBlockZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checks compiled in: assertions allocate")
	}
	mm := op.MatMul{Name: "alloc", M: 256, K: 192, L: 192}
	kern, err := NewBatchEval(mm, dataflow.AllOrders())
	if err != nil {
		t.Fatal(err)
	}
	blk := NewBlock(256)
	for i := 0; i < 256; i++ {
		tm := 1 + i%mm.M
		blk.Push(uint8(i%6), int32(tm), 16, 16, int64(tm)*16+16*16+int64(tm)*16)
	}
	if n := testing.AllocsPerRun(100, func() { kern.EvalBlock(blk) }); n != 0 {
		t.Fatalf("EvalBlock allocated %v times per run, want 0", n)
	}
}

// BenchmarkBatchKernel measures the per-candidate cost of the batch path
// (ns/candidate ≈ ns/op ÷ 256) and pins its zero-allocation property.
func BenchmarkBatchKernel(b *testing.B) {
	mm := op.MatMul{Name: "bench", M: 256, K: 192, L: 256}
	kern, err := NewBatchEval(mm, dataflow.AllOrders())
	if err != nil {
		b.Fatal(err)
	}
	blk := NewBlock(256)
	for i := 0; i < 256; i++ {
		tm := 1 + (i*7)%mm.M
		tk := 1 + (i*5)%mm.K
		tl := 1 + (i*3)%mm.L
		foot := int64(tm)*int64(tk) + int64(tk)*int64(tl) + int64(tm)*int64(tl)
		blk.Push(uint8(i%6), int32(tm), int32(tk), int32(tl), foot)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.EvalBlock(blk)
	}
}
