package sim

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

func TestOverheadMirrorExact(t *testing.T) {
	// For a mirrored system, a prefix reconstructs iff it covers every
	// pair (either member). The minimum is between n (one per pair, best
	// case) and 2n-? … sanity-check the support of the distribution.
	g := mirrorGraph(6)
	res, err := OverheadCtx(context.Background(), g, OverheadOptions{Trials: 4000, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total != 4000 {
		t.Fatalf("trials = %d", res.Counts.Total)
	}
	for v, c := range res.Counts.Counts {
		if c > 0 && (v < 6 || v > 11) {
			// Coupon-collector over 6 pairs from 12 drives: at least 6
			// retrievals; the worst case needs at most 11 (after 11
			// drives only one is missing, and its pair was surely seen).
			t.Errorf("impossible retrieval count %d observed", v)
		}
	}
	if m := res.Mean(); m < 6 || m > 11 {
		t.Errorf("mean = %v", m)
	}
}

func TestOverheadCouponCollectorMean(t *testing.T) {
	// The mirrored minimum-prefix length is the number of draws (without
	// replacement) needed to touch all n pairs. For n=2 pairs (4 drives)
	// the exact expectation is 2 + P(3rd needed) + … computable directly:
	// orders of 4 distinct drives; prefix covers both pairs. E = 2·(1/3) +
	// 3·(2/3)·(1/2)·… — just brute-force it.
	g := mirrorGraph(2)
	// Enumerate all 24 permutations exactly.
	perm := []int{0, 1, 2, 3}
	var total, count float64
	var rec func(k int)
	used := make([]bool, 4)
	cur := make([]int, 0, 4)
	d := decode.New(g)
	rec = func(k int) {
		if k == 4 {
			order := append([]int(nil), cur...)
			n, ok := minimumPrefix(d, order)
			if !ok {
				t.Fatal("mirror not decodable")
			}
			total += float64(n)
			count++
			return
		}
		for _, v := range perm {
			if !used[v] {
				used[v] = true
				cur = append(cur, v)
				rec(k + 1)
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
	}
	rec(0)
	want := total / count

	res, err := OverheadCtx(context.Background(), g, OverheadOptions{Trials: 60000, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mean(); math.Abs(got-want) > 0.03 {
		t.Errorf("sampled mean %v, exact %v", got, want)
	}
}

func TestOverheadTornadoShape(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := OverheadCtx(context.Background(), g, OverheadOptions{Trials: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Literature shape: overhead between 1.0 (MDS) and ~1.5 for small
	// LDPC graphs; the median must be below the paper's 50%-profile
	// numbers (61-62) because the minimum prefix ignores wasted blocks.
	if oh := res.MeanOverhead(); oh < 1.0 || oh > 1.6 {
		t.Errorf("mean overhead = %v", oh)
	}
	if q := res.Quantile(0.5); q < g.Data || q > 70 {
		t.Errorf("median retrieval count = %d", q)
	}
	if res.Quantile(0.99) < res.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
}

func TestOverheadDeterministicSeed(t *testing.T) {
	g := mirrorGraph(4)
	a, err := OverheadCtx(context.Background(), g, OverheadOptions{Trials: 2000, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OverheadCtx(context.Background(), g, OverheadOptions{Trials: 2000, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Counts.Counts {
		if a.Counts.Counts[v] != b.Counts.Counts[v] {
			t.Fatalf("bin %d differs with same seed", v)
		}
	}
}

func TestOverheadBrokenGraph(t *testing.T) {
	// A graph with an uncovered... coverage is enforced by Validate, so
	// build a decodable-never case: data node whose only check shares a
	// closed pair — full set IS decodable there. Instead corrupt by
	// erasing... simplest: a graph whose full block set is trivially
	// decodable can't fail. Use minimumPrefix directly with a wrong-size
	// order to assert the failure path of Overhead is unreachable for
	// valid graphs.
	b := graph.NewBuilder(2)
	r := b.AddLevel(0, 2, 2)
	g := b.Graph()
	g.SetNeighbors(r, []int{0, 1})
	g.SetNeighbors(r+1, []int{0, 1})
	res, err := OverheadCtx(context.Background(), g, OverheadOptions{Trials: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Data nodes must be retrieved directly (checks can never recover a
	// closed pair), so every trial needs both data nodes in the prefix.
	for v, c := range res.Counts.Counts {
		if c > 0 && v < 2 {
			t.Errorf("retrieval count %d impossible for the closed pair", v)
		}
	}
}

func TestMinimumPrefixMonotone(t *testing.T) {
	g := mirrorGraph(4)
	d := decode.New(g)
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 50; trial++ {
		order := rng.Perm(g.Total)
		n, ok := minimumPrefix(d, order)
		if !ok {
			t.Fatal("mirror undecodable")
		}
		// The returned prefix decodes; one shorter does not.
		if !d.Recoverable(order[n:]) {
			t.Fatalf("prefix %d does not decode", n)
		}
		if n > 0 && d.Recoverable(order[n-1:]) {
			t.Fatalf("prefix %d is not minimal", n)
		}
	}
}

func BenchmarkOverheadTrial(b *testing.B) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		b.Fatal(err)
	}
	d := decode.New(g)
	rng := rand.New(rand.NewPCG(1, 1))
	order := make([]int, g.Total)
	for i := range order {
		order[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Shuffle(len(order), func(x, y int) { order[x], order[y] = order[y], order[x] })
		if _, ok := minimumPrefix(d, order); !ok {
			b.Fatal("undecodable")
		}
	}
}
