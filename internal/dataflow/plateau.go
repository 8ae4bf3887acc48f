package dataflow

// NextPlateau returns the left endpoint of the next ceil plateau above tile
// for a dimension of the given extent: the smallest tile t' > tile on the
// lattice {multiples of quantum} ∪ {extent} whose trip count ceil(extent/t')
// is below ceil(extent/tile). It returns 0 when tile already needs a single
// trip. A quantum below 2 means every integer tile is on the lattice; tile
// must be at least 1.
//
// The cost model depends on a tile only through its trip count, and every
// frontier in this module pairs a tile with a partner budget that shrinks as
// the tile grows. So inside one plateau the left endpoint is never worse
// than any other point, and the first minimum of an ascending sweep always
// sits on a left endpoint. Walking the endpoints with NextPlateau visits
// about 2√extent tiles instead of extent/quantum.
func NextPlateau(extent, tile, quantum int) int {
	n := (extent + tile - 1) / tile
	if n <= 1 {
		return 0
	}
	// ceil(extent/t') ≤ n−1 ⇔ t' ≥ ceil(extent/(n−1)).
	next := (extent + n - 2) / (n - 1)
	if quantum > 1 {
		next = (next + quantum - 1) / quantum * quantum
	}
	if next > extent {
		return extent
	}
	return next
}
