package dataflow

import "testing"

// TestNextPlateauMatchesDefinition checks NextPlateau against a scan of the
// lattice for every tile of small extents: the result is the smallest
// lattice tile above tile with a smaller trip count, or 0 when none exists.
func TestNextPlateauMatchesDefinition(t *testing.T) {
	trips := func(ext, tile int) int { return (ext + tile - 1) / tile }
	for _, q := range []int{0, 1, 3, 8, 128} {
		for ext := 1; ext <= 300; ext++ {
			for tile := 1; tile <= ext; tile++ {
				want := 0
				for c := tile + 1; c <= ext; c++ {
					onLattice := q < 2 || c%q == 0 || c == ext
					if onLattice && trips(ext, c) < trips(ext, tile) {
						want = c
						break
					}
				}
				if got := NextPlateau(ext, tile, q); got != want {
					t.Fatalf("NextPlateau(%d, %d, %d) = %d, want %d", ext, tile, q, got, want)
				}
			}
		}
	}
}

// TestNextPlateauWalkLength pins the O(√extent) bound: walking from tile 1
// visits at most 2√extent + 1 endpoints.
func TestNextPlateauWalkLength(t *testing.T) {
	for _, ext := range []int{1, 2, 17, 768, 4096, 262_144, 300_000} {
		steps := 1
		for x := 1; ; steps++ {
			if x = NextPlateau(ext, x, 1); x == 0 {
				break
			}
		}
		if bound := 2*isqrt(ext) + 2; steps > bound {
			t.Errorf("extent %d: %d endpoints, bound %d", ext, steps, bound)
		}
	}
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
