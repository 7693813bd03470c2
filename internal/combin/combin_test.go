package combin

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {96, 1, 96},
		{96, 2, 4560}, {96, 3, 142880}, {96, 4, 3321960},
		{96, 5, 61124064}, {10, 11, 0}, {10, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); math.Abs(got-c.want) > 1e-6*math.Max(1, c.want) {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialBigMatchesFloat(t *testing.T) {
	for n := 0; n <= 60; n++ {
		for k := 0; k <= n; k++ {
			bf, _ := new(big.Float).SetInt(BinomialBig(n, k)).Float64()
			if rel := math.Abs(bf-Binomial(n, k)) / math.Max(1, bf); rel > 1e-9 {
				t.Fatalf("Binomial(%d,%d) float %v vs big %v", n, k, Binomial(n, k), bf)
			}
		}
	}
}

func TestBinomialInt64(t *testing.T) {
	v, ok := BinomialInt64(96, 5)
	if !ok || v != 61124064 {
		t.Errorf("BinomialInt64(96,5) = %d,%v", v, ok)
	}
	if _, ok := BinomialInt64(200, 100); ok {
		t.Error("BinomialInt64(200,100) should overflow int64")
	}
}

func TestLogBinomial(t *testing.T) {
	if got, want := LogBinomial(96, 5), math.Log(61124064); math.Abs(got-want) > 1e-9 {
		t.Errorf("LogBinomial(96,5) = %v, want %v", got, want)
	}
	if !math.IsInf(LogBinomial(5, 6), -1) {
		t.Error("LogBinomial out of range should be -Inf")
	}
	// C(96,48) ≈ e^63.5; check against big-int computation.
	f, _ := new(big.Float).SetInt(BinomialBig(96, 48)).Float64()
	if math.Abs(LogBinomial(96, 48)-math.Log(f)) > 1e-6 {
		t.Errorf("LogBinomial(96,48) = %v, want %v", LogBinomial(96, 48), math.Log(f))
	}
}

func TestFirstNext(t *testing.T) {
	idx := make([]int, 3)
	First(idx, 5)
	var all [][3]int
	for {
		all = append(all, [3]int{idx[0], idx[1], idx[2]})
		if !Next(idx, 5) {
			break
		}
	}
	if len(all) != 10 {
		t.Fatalf("enumerated %d combinations of C(5,3), want 10", len(all))
	}
	if all[0] != [3]int{0, 1, 2} || all[9] != [3]int{2, 3, 4} {
		t.Errorf("endpoints wrong: %v … %v", all[0], all[9])
	}
	// Strictly increasing lexicographic order.
	for i := 1; i < len(all); i++ {
		if !lexLess(all[i-1][:], all[i][:]) {
			t.Errorf("combination %v not < %v", all[i-1], all[i])
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestRankUnrankRoundTrip(t *testing.T) {
	n, k := 12, 4
	total, _ := BinomialInt64(n, k)
	idx := make([]int, k)
	for r := int64(0); r < total; r++ {
		Unrank(idx, n, r)
		if got := Rank(idx, n); got != r {
			t.Fatalf("Rank(Unrank(%d)) = %d", r, got)
		}
	}
}

func TestEnumerationMatchesUnrank(t *testing.T) {
	n, k := 10, 3
	idx := make([]int, k)
	First(idx, n)
	u := make([]int, k)
	r := int64(0)
	for {
		Unrank(u, n, r)
		for i := range idx {
			if idx[i] != u[i] {
				t.Fatalf("rank %d: Next gives %v, Unrank gives %v", r, idx, u)
			}
		}
		r++
		if !Next(idx, n) {
			break
		}
	}
	if total, _ := BinomialInt64(n, k); r != total {
		t.Fatalf("enumerated %d, want %d", r, total)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	done := ForEach(6, 2, func(idx []int) bool {
		count++
		return count < 5
	})
	if done || count != 5 {
		t.Errorf("ForEach early stop: done=%v count=%d", done, count)
	}
	count = 0
	done = ForEach(6, 2, func(idx []int) bool { count++; return true })
	if !done || count != 15 {
		t.Errorf("ForEach full: done=%v count=%d, want 15", done, count)
	}
}

func TestForEachZeroK(t *testing.T) {
	count := 0
	ForEach(5, 0, func(idx []int) bool {
		if len(idx) != 0 {
			t.Errorf("k=0 got idx %v", idx)
		}
		count++
		return true
	})
	if count != 1 {
		t.Errorf("k=0 enumerated %d, want 1", count)
	}
}

func TestRandomSubsetValidity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := NewSubsetDraw(96)
	idx := make([]int, 5)
	for trial := 0; trial < 200; trial++ {
		d.Draw(idx, rng)
		seen := make(map[int]bool, len(idx))
		for _, v := range idx {
			if v < 0 || v >= 96 {
				t.Fatalf("element %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("subset repeats %d: %v", v, idx)
			}
			seen[v] = true
		}
	}
}

func TestRandomSubsetUniformity(t *testing.T) {
	// Each element of {0..9} should appear in a size-3 subset with
	// probability 3/10. Chi-square-ish sanity check over many draws.
	rng := rand.New(rand.NewPCG(7, 7))
	d := NewSubsetDraw(10)
	counts := make([]int, 10)
	idx := make([]int, 3)
	const trials = 30000
	for i := 0; i < trials; i++ {
		d.Draw(idx, rng)
		for _, v := range idx {
			counts[v]++
		}
	}
	want := float64(trials) * 0.3
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("element %d appeared %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestRandomSubsetFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	idx := make([]int, 7)
	NewSubsetDraw(7).Draw(idx, rng)
	slices.Sort(idx)
	for i, v := range idx {
		if v != i {
			t.Fatalf("k=n subset = %v, want identity", idx)
		}
	}
}

// floydReference is the map-and-sort Floyd draw SubsetDraw replaced: the
// membership set in a map, the result sorted ascending.
func floydReference(idx []int, n int, rng *rand.Rand) {
	member := make(map[int]bool, len(idx))
	i := 0
	for j := n - len(idx); j < n; j++ {
		t := rng.IntN(j + 1)
		if member[t] {
			t = j
		}
		member[t] = true
		idx[i] = t
		i++
	}
	slices.Sort(idx)
}

// TestSubsetDrawMatchesReference pins draw parity: fed identical PCG
// streams, SubsetDraw (sorted afterwards) yields exactly the reference's
// subsets, draw after draw, so every sampled tally drawn through it is
// unchanged — including k=1, k=n, and archival n where epochs reuse one
// stamp array across thousands of draws.
func TestSubsetDrawMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, k, draws int }{
		{10, 1, 5000}, {96, 5, 5000}, {97, 97, 2000}, {100000, 400, 2000},
	} {
		seed := uint64(c.n)<<16 | uint64(c.k)
		got, want := rand.New(rand.NewPCG(seed, 1)), rand.New(rand.NewPCG(seed, 1))
		d := NewSubsetDraw(c.n)
		a, b := make([]int, c.k), make([]int, c.k)
		for i := 0; i < c.draws; i++ {
			d.Draw(a, got)
			floydReference(b, c.n, want)
			slices.Sort(a)
			if !slices.Equal(a, b) {
				t.Fatalf("n=%d k=%d draw %d: got %v, reference %v", c.n, c.k, i, a, b)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%d k=%d: streams diverged after %d draws", c.n, c.k, c.draws)
		}
	}
}

// TestSubsetDrawEpochWrap: when the epoch counter wraps, stale stamps
// from earlier draws must not read as members of the new one.
func TestSubsetDrawEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	d := NewSubsetDraw(8)
	idx := make([]int, 8)
	d.Draw(idx, rng) // stamps every element with epoch 1
	d.epoch = math.MaxUint32
	for i := 0; i < 3; i++ {
		d.Draw(idx, rng)
		slices.Sort(idx)
		for j, v := range idx {
			if v != j {
				t.Fatalf("draw %d after wrap = %v, want all of 0..7", i, idx)
			}
		}
	}
}

func TestSplitRanges(t *testing.T) {
	rs := SplitRanges(10, 3)
	if len(rs) != 3 {
		t.Fatalf("got %d ranges", len(rs))
	}
	var covered int64
	prev := int64(0)
	for _, r := range rs {
		if r[0] != prev {
			t.Errorf("range gap: %v", rs)
		}
		covered += r[1] - r[0]
		prev = r[1]
	}
	if covered != 10 {
		t.Errorf("covered %d, want 10", covered)
	}
	if rs := SplitRanges(2, 5); len(rs) != 2 {
		t.Errorf("SplitRanges(2,5) = %v", rs)
	}
	if rs := SplitRanges(0, 3); len(rs) != 0 {
		t.Errorf("SplitRanges(0,3) = %v", rs)
	}
}

// Property: Rank is a bijection onto [0, C(n,k)) for random combinations.
func TestQuickRankBijective(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		n := 5 + r.IntN(20)
		k := 1 + r.IntN(n)
		idx := make([]int, k)
		NewSubsetDraw(n).Draw(idx, rng)
		slices.Sort(idx)
		rank := Rank(idx, n)
		total, _ := BinomialInt64(n, k)
		if rank < 0 || rank >= total {
			return false
		}
		back := make([]int, k)
		Unrank(back, n, rank)
		for i := range idx {
			if back[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitRangesDegenerate(t *testing.T) {
	cases := []struct {
		total int64
		parts int
		want  int // range count
	}{
		{total: 0, parts: 1, want: 0},
		{total: 0, parts: 0, want: 0},
		{total: -5, parts: 3, want: 0},
		{total: 7, parts: 0, want: 1},
		{total: 7, parts: -2, want: 1},
		{total: 1, parts: 1, want: 1},
		{total: 1, parts: 100, want: 1},
		{total: 3, parts: 7, want: 3},
	}
	for _, c := range cases {
		rs := SplitRanges(c.total, c.parts)
		if len(rs) != c.want {
			t.Errorf("SplitRanges(%d,%d) = %v, want %d ranges", c.total, c.parts, rs, c.want)
		}
	}
	// parts > total degrades to single-element ranges.
	for i, r := range SplitRanges(3, 7) {
		if r[0] != int64(i) || r[1] != int64(i)+1 {
			t.Errorf("SplitRanges(3,7)[%d] = %v, want [%d,%d)", i, r, i, i+1)
		}
	}
}

// Property: for any (total, parts), the ranges exactly tile [0, total) —
// contiguous, ascending, non-empty, no overlap — and sizes differ by at
// most one. Exercised with total = C(n,k) to mirror the exhaustive-search
// and campaign-sharding call sites.
func TestQuickSplitRangesTile(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		n := 1 + r.IntN(40)
		k := r.IntN(n + 1)
		total, ok := BinomialInt64(n, k)
		if !ok {
			return true
		}
		parts := 1 + r.IntN(64)
		if total < 64 && r.IntN(8) == 0 {
			parts = int(total) + 1 + r.IntN(3) // force parts > total
		}
		rs := SplitRanges(total, parts)
		if len(rs) > parts {
			return false
		}
		var prev, minSize, maxSize int64
		minSize = total + 1
		for _, rg := range rs {
			if rg[0] != prev || rg[1] <= rg[0] {
				return false // gap, overlap, or empty range
			}
			size := rg[1] - rg[0]
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			prev = rg[1]
		}
		if prev != total {
			return false // does not cover the full rank space
		}
		if len(rs) > 1 && maxSize-minSize > 1 {
			return false // near-equal split violated
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// --- Revolving-door (Gray code) enumeration ---

// grayEnumerate walks the whole revolving-door order for (n, k) via
// GrayUnrank(0) + GrayNext, returning every visited combination.
func grayEnumerate(t *testing.T, n, k int) [][]int {
	t.Helper()
	total, ok := BinomialInt64(n, k)
	if !ok {
		t.Fatalf("C(%d,%d) overflows", n, k)
	}
	idx := make([]int, k)
	GrayUnrank(idx, n, 0)
	var out [][]int
	for {
		cp := make([]int, k)
		copy(cp, idx)
		out = append(out, cp)
		if _, _, ok := GrayNext(idx, n); !ok {
			break
		}
	}
	if int64(len(out)) != total {
		t.Fatalf("gray order for (%d,%d) visited %d combinations, want %d", n, k, len(out), total)
	}
	return out
}

// TestGrayOrderVisitsAllOnce: the revolving-door order is a permutation of
// the lexicographic order — every combination exactly once.
func TestGrayOrderVisitsAllOnce(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			seen := map[string]bool{}
			for _, c := range grayEnumerate(t, n, k) {
				key := fmt.Sprint(c)
				if seen[key] {
					t.Fatalf("(%d,%d): combination %v visited twice", n, k, c)
				}
				seen[key] = true
				for i := 1; i < k; i++ {
					if c[i-1] >= c[i] {
						t.Fatalf("(%d,%d): combination %v not strictly increasing", n, k, c)
					}
				}
			}
		}
	}
}

// TestGrayOrderSingleSwap: consecutive combinations differ by exactly one
// element, and GrayNext reports precisely that (out, in) pair.
func TestGrayOrderSingleSwap(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			idx := make([]int, k)
			GrayUnrank(idx, n, 0)
			prev := map[int]bool{}
			for _, v := range idx {
				prev[v] = true
			}
			for {
				before := make(map[int]bool, k)
				for v := range prev {
					before[v] = true
				}
				out, in, ok := GrayNext(idx, n)
				if !ok {
					break
				}
				if !before[out] || before[in] || out == in {
					t.Fatalf("(%d,%d): swap (%d→%d) inconsistent with previous set %v", n, k, out, in, before)
				}
				delete(before, out)
				before[in] = true
				cur := map[int]bool{}
				for _, v := range idx {
					cur[v] = true
				}
				if len(cur) != k {
					t.Fatalf("(%d,%d): duplicate element after swap: %v", n, k, idx)
				}
				for v := range cur {
					if !before[v] {
						t.Fatalf("(%d,%d): successor %v does not match reported swap (%d→%d)", n, k, idx, out, in)
					}
				}
				prev = cur
			}
		}
	}
}

// TestGrayRankUnrankRoundTrip: GrayRank inverts GrayUnrank across the whole
// rank space, and ranks follow the enumeration order.
func TestGrayRankUnrankRoundTrip(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			for r, c := range grayEnumerate(t, n, k) {
				if got := GrayRank(c, n); got != int64(r) {
					t.Fatalf("(%d,%d): GrayRank(%v) = %d, want %d", n, k, c, got, r)
				}
				idx := make([]int, k)
				GrayUnrank(idx, n, int64(r))
				if fmt.Sprint(idx) != fmt.Sprint(c) {
					t.Fatalf("(%d,%d): GrayUnrank(%d) = %v, want %v", n, k, r, idx, c)
				}
			}
		}
	}
}

// TestGrayUnrankMidStart: starting an enumeration from an arbitrary rank
// (the campaign-shard access pattern) continues the same global order.
func TestGrayUnrankMidStart(t *testing.T) {
	const n, k = 12, 4
	all := grayEnumerate(t, n, k)
	for _, start := range []int64{1, 7, 100, 300, int64(len(all) - 1)} {
		idx := make([]int, k)
		GrayUnrank(idx, n, start)
		for r := start; r < int64(len(all)); r++ {
			if fmt.Sprint(idx) != fmt.Sprint(all[r]) {
				t.Fatalf("rank %d (from %d): got %v, want %v", r, start, idx, all[r])
			}
			GrayNext(idx, n)
		}
	}
}

func TestGrayUnrankRejectsBadRank(t *testing.T) {
	for _, r := range []int64{-1, 6} { // C(4,2) = 6
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GrayUnrank accepted rank %d", r)
				}
			}()
			GrayUnrank(make([]int, 2), 4, r)
		}()
	}
}
