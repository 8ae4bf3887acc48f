package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/fusion"
	"fusecu/internal/op"
)

// This file keeps the linear frontier sweeps the plateau walk replaced, as
// reference oracles: every T1 on the lattice is priced through
// dataflow.Must and cost.MustEvaluate and the first strict minimum wins.
// The production constructions must agree with them bit for bit.

// singleNRALinear is the linear Principle 1 sweep.
func singleNRALinear(mm op.MatMul, bufferSize int64, stationary dataflow.Tensor) (Candidate, bool) {
	if bufferSize < minimumBuffer {
		return Candidate{}, false
	}
	dd := stationary.Dims()
	d1, d2 := dd[0], dd[1]
	order := canonicalOrderForStationary(stationary)

	ext1, ext2 := int64(d1.Extent(mm)), int64(d2.Extent(mm))
	bestTiling, found := dataflow.UnitTiling(), false
	var bestMA int64
	for t1 := int64(1); t1 <= ext1; t1++ {
		// T1·T2 + T1 + T2 ≤ BS  ⇒  T2 ≤ (BS − T1)/(T1 + 1)
		t2 := (bufferSize - t1) / (t1 + 1)
		if t2 < 1 {
			break
		}
		if t2 > ext2 {
			t2 = ext2
		}
		ti := dataflow.UnitTiling().
			WithTile(d1, int(t1)).WithTile(d2, int(t2))
		a := cost.MustEvaluate(mm, dataflow.Must(mm, order, ti))
		if a.Footprint > bufferSize {
			continue
		}
		if !found || a.Total < bestMA {
			found, bestMA, bestTiling = true, a.Total, ti
		}
	}
	if !found {
		return Candidate{}, false
	}
	df := dataflow.Must(mm, order, bestTiling)
	return Candidate{
		Dataflow:  df,
		Access:    cost.MustEvaluate(mm, df),
		Principle: 1,
		Note:      fmt.Sprintf("P1: %s stationary (%s)", stationary, stationary.Kind()),
	}, true
}

// frontierLinear is the linear constrained frontier sweep.
func frontierLinear(mm op.MatMul, bufferSize int64, stationary dataflow.Tensor, c Constraint) (Candidate, bool) {
	dd := stationary.Dims()
	d1, d2 := dd[0], dd[1]
	third := irrelevantDimOf(stationary)
	order := canonicalOrderForStationary(stationary)

	ext1, ext2, ext3 := d1.Extent(mm), d2.Extent(mm), third.Extent(mm)
	t3 := minAllowedTile(c, ext3)
	if t3 == 0 {
		return Candidate{}, false
	}
	cap1, cap2 := ext1, ext2
	if m := c.MaxStationaryTile; m > 0 {
		cap1, cap2 = min(cap1, m), min(cap2, m)
	}

	var (
		found      bool
		bestMA     int64
		bestTiling dataflow.Tiling
	)
	try := func(t1 int) {
		if t1 == 0 {
			return
		}
		lim := (bufferSize - int64(t1)*int64(t3)) / (int64(t1) + int64(t3))
		if lim < 1 {
			return
		}
		if lim > int64(cap2) {
			lim = int64(cap2)
		}
		if c.Square && lim > int64(t1) && t1 < cap1 {
			lim = int64(t1)
		}
		t2 := c.snapDown(int(lim), ext2)
		if t2 == 0 {
			return
		}
		ti := dataflow.UnitTiling().
			WithTile(third, t3).WithTile(d1, t1).WithTile(d2, t2)
		a := cost.MustEvaluate(mm, dataflow.Must(mm, order, ti))
		if a.Footprint > bufferSize {
			return
		}
		if !found || a.Total < bestMA {
			found, bestMA, bestTiling = true, a.Total, ti
		}
	}
	q := c.quantum()
	for t1 := q; t1 < cap1; t1 += q {
		try(t1)
	}
	try(cap1)
	if q > 1 && cap1 > 1 {
		try(minAllowedTile(c, cap1))
	}
	if !found {
		return Candidate{}, false
	}
	df := dataflow.Must(mm, order, bestTiling)
	acc := cost.MustEvaluate(mm, df)
	return Candidate{
		Dataflow:  df,
		Access:    acc,
		Principle: principleForNRA(acc.NRA),
		Note: fmt.Sprintf("constrained frontier: %s stationary (%s), quantum %d",
			stationary, stationary.Kind(), q),
	}, true
}

// optimizeLinear is Optimize with the linear Principle 1 sweep.
func optimizeLinear(mm op.MatMul, bufferSize int64) (Result, error) {
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	if bufferSize < minimumBuffer {
		return Result{}, fmt.Errorf("%w: have %d elements", ErrBufferTooSmall, bufferSize)
	}
	var cands []Candidate
	if c, ok := ThreeNRACandidate(mm, bufferSize, smallestTensor(mm)); ok {
		cands = append(cands, c)
	}
	cands = appendTwoNRA(cands, mm, bufferSize, smallestDim(mm))
	for _, d := range dataflow.Dims() {
		if d != smallestDim(mm) {
			cands = appendTwoNRA(cands, mm, bufferSize, d)
		}
	}
	if c, ok := singleNRALinear(mm, bufferSize, smallestTensor(mm)); ok {
		cands = append(cands, c)
	}
	for _, t := range dataflow.Tensors() {
		if t == smallestTensor(mm) {
			continue
		}
		if c, ok := singleNRALinear(mm, bufferSize, t); ok {
			cands = append(cands, c)
		}
	}
	best, ok := bestOf(cands)
	if !ok {
		return Result{}, errs.ErrInfeasible
	}
	return Result{Candidate: best, Regime: Classify(mm, bufferSize), Considered: cands}, nil
}

// optimizeConstrainedLinear is OptimizeConstrained with the linear sweep.
func optimizeConstrainedLinear(mm op.MatMul, bufferSize int64, c Constraint) (Result, error) {
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	if bufferSize < minimumBuffer {
		return Result{}, fmt.Errorf("%w: have %d elements", ErrBufferTooSmall, bufferSize)
	}
	var cands []Candidate
	for _, t := range dataflow.Tensors() {
		if !c.AllowsStationary(t.Kind()) {
			continue
		}
		if cand, ok := frontierLinear(mm, bufferSize, t, c); ok {
			cands = append(cands, cand)
		}
	}
	best, ok := bestOf(cands)
	if !ok {
		return Result{}, errs.ErrInfeasible
	}
	return Result{Candidate: best, Regime: Classify(mm, bufferSize), Considered: cands}, nil
}

// sameResult reports the first field in which got departs from the oracle:
// the winner's Dataflow, Access, Principle and Note, the regime, and every
// considered candidate.
func sameResult(got, want Result, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	if len(got.Considered) != len(want.Considered) {
		return fmt.Sprintf("considered %d candidates, oracle %d", len(got.Considered), len(want.Considered))
	}
	if d := sameCandidate(got.Candidate, want.Candidate); d != "" {
		return "winner " + d
	}
	if got.Regime != want.Regime {
		return fmt.Sprintf("regime %v, oracle %v", got.Regime, want.Regime)
	}
	for i := range got.Considered {
		if d := sameCandidate(got.Considered[i], want.Considered[i]); d != "" {
			return fmt.Sprintf("considered[%d] %s", i, d)
		}
	}
	return ""
}

func sameCandidate(got, want Candidate) string {
	switch {
	case got.Dataflow != want.Dataflow:
		return fmt.Sprintf("dataflow %v, oracle %v", got.Dataflow, want.Dataflow)
	case got.Access != want.Access:
		return fmt.Sprintf("access %+v, oracle %+v", got.Access, want.Access)
	case got.Principle != want.Principle:
		return fmt.Sprintf("principle %d, oracle %d", got.Principle, want.Principle)
	case got.Note != want.Note:
		return fmt.Sprintf("note %q, oracle %q", got.Note, want.Note)
	}
	return ""
}

// oracleConstraints are the dataflow spaces the oracle properties run under:
// no restriction, each arch platform restriction on its own (tile quanta 8
// and 128, Square, MaxStationaryTile 512, FusedTileAlign), and the platforms'
// combinations (TPUv4i, Gemmini, Planaria, UnfCU/FuseCU).
var oracleConstraints = []Constraint{
	{},
	{TileQuantum: 8},
	{TileQuantum: 128},
	{Square: true},
	{MaxStationaryTile: 512},
	{FusedTileAlign: 128},
	{TileQuantum: 8, Square: true},
	{Stationaries: []dataflow.StationaryKind{dataflow.WS}, TileQuantum: 128, Square: true, MaxStationaryTile: 512},
	{TileQuantum: 128, Square: true, MaxStationaryTile: 512},
	{Stationaries: []dataflow.StationaryKind{dataflow.WS}, TileQuantum: 8},
	{TileQuantum: 8, FusedTileAlign: 128},
}

// CheckAgainstOracle compares Optimize, and OptimizeConstrained under each
// of cs, with their linear oracles at one point. It is exported to the
// external test package, which can import the shape sets of
// internal/experiments and the platforms of internal/arch.
func CheckAgainstOracle(t *testing.T, mm op.MatMul, bs int64, cs []Constraint) {
	t.Helper()
	got, gotErr := Optimize(mm, bs)
	want, wantErr := optimizeLinear(mm, bs)
	if d := sameResult(got, want, gotErr, wantErr); d != "" {
		t.Errorf("Optimize %v BS=%d: %s", mm, bs, d)
	}
	for _, c := range cs {
		got, gotErr := OptimizeConstrained(mm, bs, c)
		want, wantErr := optimizeConstrainedLinear(mm, bs, c)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Errorf("OptimizeConstrained %v BS=%d %+v: %s", mm, bs, c, d)
		}
	}
}

// TestFrontierWalkMatchesOracleRandom covers randomized shapes with extents
// up to 300k and buffers from the 3-element floor up, in three bands run in
// parallel: small extents, mid extents, and one huge extent next to two
// small ones (the shapes whose linear sweep was longest).
func TestFrontierWalkMatchesOracleRandom(t *testing.T) {
	bands := []struct {
		name   string
		trials int
		shape  func(dim func(int) int) op.MatMul
	}{
		{"small", 120, func(dim func(int) int) op.MatMul {
			return op.MatMul{M: dim(64), K: dim(64), L: dim(64)}
		}},
		{"mid", 60, func(dim func(int) int) op.MatMul {
			return op.MatMul{M: dim(5000), K: dim(5000), L: dim(5000)}
		}},
		{"huge", 24, func(dim func(int) int) op.MatMul {
			ext := [3]int{dim(300_000), dim(48), dim(48)}
			r := dim(3) - 1
			return op.MatMul{M: ext[r], K: ext[(r+1)%3], L: ext[(r+2)%3]}
		}},
	}
	for i, band := range bands {
		i, band := i, band
		t.Run(band.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7 + i)))
			dim := func(hi int) int { return rng.Intn(hi) + 1 }
			for trial := 0; trial < band.trials; trial++ {
				mm := band.shape(dim)
				var bs int64
				switch rng.Intn(4) {
				case 0:
					bs = 3 + rng.Int63n(64)
				case 1:
					bs = 3 + rng.Int63n(1<<12)
				case 2:
					bs = 3 + rng.Int63n(1<<20)
				default:
					bs = 3 + rng.Int63n(mm.IdealMA()+64)
				}
				CheckAgainstOracle(t, mm, bs, oracleConstraints)
			}
		})
	}
}

// TestPlanChainDecisionsMatchDecideFusion pins the reuse of the per-operator
// optima in PlanChainOpts: every recorded decision, including First and
// Second, equals DecideFusionConstrained's recomputation, and the plan is
// unchanged.
func TestPlanChainDecisionsMatchDecideFusion(t *testing.T) {
	attn, err := op.NewChain("attn",
		op.MatMul{M: 512, K: 64, L: 512},
		op.MatMul{M: 512, K: 512, L: 64},
		op.MatMul{M: 512, K: 64, L: 768},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range oracleConstraints {
		for _, bs := range []int64{1 << 12, 1 << 15, 1 << 18, 1 << 21} {
			plan, err := PlanChainOpts(attn, bs, PlanOptions{Constraint: c, AllowFusion: true})
			if err != nil {
				continue // a coarse lattice can leave a small buffer infeasible
			}
			for i, d := range plan.Decisions {
				pair, err := fusion.NewPair(attn.Ops[i], attn.Ops[i+1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := DecideFusionConstrained(pair, bs, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(d, want) {
					t.Errorf("%+v BS=%d decision %d differs from DecideFusionConstrained", c, bs, i)
				}
			}
		}
	}
}

// FuzzFrontierWalk holds the plateau walk to the linear sweep on fuzzed
// shapes, buffers and constraints.
func FuzzFrontierWalk(f *testing.F) {
	f.Add(uint32(1024), uint32(768), uint32(768), int64(512*1024), uint16(0), uint8(0), uint16(0))
	f.Add(uint32(1), uint32(128), uint32(1087), int64(32<<10), uint16(8), uint8(0), uint16(0))
	f.Add(uint32(4096), uint32(64), uint32(4096), int64(1<<20), uint16(128), uint8(1), uint16(512))
	f.Add(uint32(300), uint32(7), uint32(3), int64(97), uint16(0), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, m, k, l uint32, bs int64, q uint16, square uint8, maxTile uint16) {
		mm := op.MatMul{M: int(m%20_000) + 1, K: int(k%20_000) + 1, L: int(l%20_000) + 1}
		bs = 3 + int64(uint64(bs)%uint64(mm.IdealMA()+1024))
		c := Constraint{TileQuantum: int(q % 257), Square: square%2 == 1, MaxStationaryTile: int(maxTile % 1025)}
		got, gotErr := OptimizeConstrained(mm, bs, c)
		want, wantErr := optimizeConstrainedLinear(mm, bs, c)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Fatalf("OptimizeConstrained %v BS=%d %+v: %s", mm, bs, c, d)
		}
		if c.TileQuantum == 0 && !c.Square && c.MaxStationaryTile == 0 {
			got, gotErr := Optimize(mm, bs)
			want, wantErr := optimizeLinear(mm, bs)
			if d := sameResult(got, want, gotErr, wantErr); d != "" {
				t.Fatalf("Optimize %v BS=%d: %s", mm, bs, d)
			}
		}
	})
}
