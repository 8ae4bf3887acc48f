package fusion

import (
	"math/rand"
	"testing"

	"fusecu/internal/op"
)

// tileOSISLinear is the linear T_M sweep the plateau walk in
// ConstructTileOSISAligned replaced, kept as its reference oracle: every
// lattice T_M is priced and the first strict minimum wins.
func tileOSISLinear(p Pair, bufferSize int64, align int) (Candidate, bool) {
	if align < 1 {
		align = 1
	}
	M, L := int64(p.M()), int64(p.L())
	best, found := FusedDataflow{}, false
	var bestMA int64
	try := func(tm int64) {
		if tm < 1 || tm > M {
			return
		}
		tl := (bufferSize - 2*tm) / (tm + 2)
		if tl < 1 {
			return
		}
		if tl > L {
			tl = L
		}
		if tl < L && int64(align) > 1 {
			if snapped := (tl / int64(align)) * int64(align); snapped >= 1 {
				tl = snapped
			}
		}
		fd := FusedDataflow{Pattern: PatternTileOSIS, TM: int(tm), TK: 1, TL: int(tl), TN: 1}
		a, err := Evaluate(p, fd)
		if err != nil || a.Footprint > bufferSize {
			return
		}
		if !found || a.Total < bestMA {
			found, bestMA, best = true, a.Total, fd
		}
	}
	if align == 1 {
		for tm := int64(1); tm <= M; tm++ {
			try(tm)
		}
	} else {
		for tm := int64(align); tm < M; tm += int64(align) {
			try(tm)
		}
		try(M)
		if M < int64(align) {
			try(M)
		}
	}
	if !found {
		return Candidate{}, false
	}
	a, err := Evaluate(p, best)
	if err != nil {
		return Candidate{}, false
	}
	return Candidate{Dataflow: best, Access: a, Note: "tile fusion: OS producer → IS consumer"}, true
}

func checkTileOSISOracle(t *testing.T, p Pair, bs int64, align int) {
	t.Helper()
	got, gotOK := ConstructTileOSISAligned(p, bs, align)
	want, wantOK := tileOSISLinear(p, bs, align)
	if gotOK != wantOK || got != want {
		t.Errorf("%v BS=%d align=%d: walk %+v (%v), oracle %+v (%v)", p, bs, align, got, gotOK, want, wantOK)
	}
}

// TestTileOSISWalkMatchesOracle holds the plateau walk to the linear sweep
// in Dataflow, Access and Note: on attention and FFN pairs of the Table II
// models over the Fig. 9 buffers, and on randomized pairs with M up to 300k
// and buffers from the 3-element floor up, each for the unaligned lattice,
// UnfCU's quantum 8 and the CU alignment 128.
func TestTileOSISWalkMatchesOracle(t *testing.T) {
	aligns := []int{1, 8, 128}
	var pairs []Pair
	for _, s := range [][4]int{
		{512, 64, 512, 64}, {1024, 64, 1024, 64}, {4096, 128, 4096, 128},
		{512, 768, 3072, 768}, {2048, 4096, 11008, 4096}, {1, 128, 1087, 128},
	} {
		p, err := NewPair(op.MatMul{M: s[0], K: s[1], L: s[2]}, op.MatMul{M: s[0], K: s[2], L: s[3]})
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	for _, p := range pairs {
		for bs := int64(32 << 10); bs <= 32<<20; bs *= 2 {
			for _, align := range aligns {
				checkTileOSISOracle(t, p, bs, align)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		hi := []int{32, 5000, 300_000}[trial%3]
		m, k, l, n := rng.Intn(hi)+1, rng.Intn(64)+1, rng.Intn(5000)+1, rng.Intn(64)+1
		p, err := NewPair(op.MatMul{M: m, K: k, L: l}, op.MatMul{M: m, K: l, L: n})
		if err != nil {
			t.Fatal(err)
		}
		bs := 3 + rng.Int63n([]int64{64, 1 << 12, 1 << 20, 1 << 26}[rng.Intn(4)])
		checkTileOSISOracle(t, p, bs, aligns[rng.Intn(len(aligns))])
	}
}
