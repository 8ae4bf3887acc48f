package core_test

import (
	"testing"

	"fusecu/internal/arch"
	"fusecu/internal/core"
	"fusecu/internal/experiments"
	"fusecu/internal/op"
)

// TestFrontierWalkMatchesOracleGrid is the fixed part of the oracle
// property: the 58 Table II + Fig. 11 shapes, the Fig. 9 ops and the decode
// attention shapes [g,128,kv] and [g,kv,128], each over the Fig. 9 buffers,
// unconstrained and under every arch platform's constraint. Shapes run in
// parallel; the linear oracle dominates the run time.
func TestFrontierWalkMatchesOracleGrid(t *testing.T) {
	shapes, err := experiments.TableIIShapes()
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 58 {
		t.Fatalf("Table II + Fig. 11 shape set has %d shapes, want 58", len(shapes))
	}
	shapes = append(shapes, experiments.Fig9Ops()...)
	for _, g := range []int{1, 4, 8} {
		for _, kv := range []int{1000, 1024, 1087, 4096} {
			shapes = append(shapes,
				op.MatMul{Name: "QKt", M: g, K: 128, L: kv},
				op.MatMul{Name: "SV", M: g, K: kv, L: 128})
		}
	}
	var cs []core.Constraint
	for _, p := range arch.All() {
		cs = append(cs, p.Constraint)
	}
	for _, mm := range shapes {
		mm := mm
		t.Run(mm.String(), func(t *testing.T) {
			t.Parallel()
			for _, bs := range experiments.Fig9Buffers() {
				core.CheckAgainstOracle(t, mm, bs, cs)
			}
		})
	}
}
