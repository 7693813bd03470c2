package core

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"tornado/internal/defect"
	"tornado/internal/graph"
)

func streamParams(n int) Params {
	p := DefaultParams()
	p.TotalNodes = n
	return p
}

// TestPlanLevelsLargeMatchesPlanLevels: on clean halving chains the
// generalized planner must agree exactly with the historical one, so the
// sub-threshold graphs are planned identically no matter which entry point
// a caller uses.
func TestPlanLevelsLargeMatchesPlanLevels(t *testing.T) {
	for _, n := range []int{8, 32, 96, 192, 384, 768, 1536} {
		p := streamParams(n)
		want, err := PlanLevels(p)
		if err != nil {
			continue // not a clean chain at this MinFinalLeft; covered below
		}
		got, err := PlanLevelsLarge(p)
		if err != nil {
			t.Fatalf("n=%d: PlanLevelsLarge: %v", n, err)
		}
		if got.DataNodes != want.DataNodes || !slices.Equal(got.CheckSizes, want.CheckSizes) {
			t.Fatalf("n=%d: PlanLevelsLarge = %v, PlanLevels = %v", n, got, want)
		}
	}
}

// TestPlanLevelsLargeBudget: for arbitrary even sizes — including the
// odd-halving chains PlanLevels rejects, like 10000 → 5000 → … → 625 —
// the check sizes must sum exactly to the data count (rate 1/2), every
// level must be nonempty, and the final two stages must fit their shared
// left range.
func TestPlanLevelsLargeBudget(t *testing.T) {
	for _, n := range []int{8, 10, 96, 1000, 2006, 10000, 20000, 99998, 100000} {
		p := streamParams(n)
		plan, err := PlanLevelsLarge(p)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if plan.DataNodes != n/2 {
			t.Fatalf("n=%d: data = %d, want %d", n, plan.DataNodes, n/2)
		}
		sum := 0
		for _, c := range plan.CheckSizes {
			if c < 1 {
				t.Fatalf("n=%d: empty level in %v", n, plan.CheckSizes)
			}
			sum += c
		}
		if sum != plan.DataNodes {
			t.Fatalf("n=%d: check sizes %v sum to %d, want %d", n, plan.CheckSizes, sum, plan.DataNodes)
		}
		if len(plan.CheckSizes) < 2 {
			t.Fatalf("n=%d: plan %v lacks the final stage pair", n, plan.CheckSizes)
		}
		// The final two stages share the left range fed by the previous
		// level (or the data nodes); each must not exceed it.
		sharedLeft := plan.DataNodes
		if len(plan.CheckSizes) > 2 {
			sharedLeft = plan.CheckSizes[len(plan.CheckSizes)-3]
		}
		a := plan.CheckSizes[len(plan.CheckSizes)-2]
		b := plan.CheckSizes[len(plan.CheckSizes)-1]
		if a > sharedLeft || b > sharedLeft {
			t.Fatalf("n=%d: final stages %d+%d exceed shared left range %d", n, a, b, sharedLeft)
		}
	}
	if _, err := PlanLevelsLarge(streamParams(7)); err == nil {
		t.Error("odd TotalNodes accepted")
	}
}

// TestStreamGenerateScreened10k builds a screened n=10,000 cascade — the
// archival-scale acceptance size, an odd-halving chain the historical
// planner cannot lay out — and checks structure, determinism, and that the
// screen left no closed pair behind.
func TestStreamGenerateScreened10k(t *testing.T) {
	p := streamParams(10000)
	g, st, err := Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.Data != 5000 || g.Total != 10000 {
		t.Fatalf("got %d data / %d total, want 5000/10000", g.Data, g.Total)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := g.AvgDataDegree(); d < 2.5 || d > 5 {
		t.Errorf("avg data degree %.2f outside the heavy-tail band", d)
	}
	if fs := streamDefects(g, 2); len(fs) != 0 {
		t.Errorf("screened graph still has %d closed pairs: %v (stats %+v)", len(fs), fs[0], st)
	}
	// Same seed, same graph.
	g2, _, err := Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatalf("second Generate: %v", err)
	}
	if g.Fingerprint() != g2.Fingerprint() {
		t.Error("generation is not deterministic per seed")
	}
}

// TestStreamWiringDeadEndRetried: at n=100k this graph seed's first
// attempt wires the tiny final level into a dead end (every stub shuffle
// leaves a duplicate edge). That is a property of the draw, so Generate
// must discard the attempt and draw again rather than give up with
// MaxAttempts to spare.
func TestStreamWiringDeadEndRetried(t *testing.T) {
	p := streamParams(100000)
	g, st, err := Generate(p, rand.New(rand.NewPCG(5833679380957638813, 0)))
	if err != nil {
		t.Fatalf("Generate: %v (stats %+v)", err, st)
	}
	if st.Attempts < 2 || st.Discarded != st.Attempts-1 {
		t.Errorf("stats %+v: want the dead-end attempt counted as discarded", st)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if fs := streamDefects(g, 2); len(fs) != 0 {
		t.Errorf("screened graph still has %d closed pairs", len(fs))
	}
	// Plan errors still abort: they do not depend on the draw.
	if _, st, err := Generate(streamParams(100001), rand.New(rand.NewPCG(1, 0))); err == nil || st.Discarded != 0 {
		t.Errorf("odd TotalNodes: err %v, stats %+v; want an immediate error", err, st)
	}
}

// TestStreamFingerprintPins: seeds whose first attempt already wired
// cleanly build exactly the graphs they always have — retrying wiring
// dead ends changes nothing for them.
func TestStreamFingerprintPins(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed uint64
		fp   string
	}{
		{20000, 2006, "1baab2417b41987522170c9cee741de8c99f91bf35609e4af8c523efbab37bea"},
		{100000, 2006, "fd2878d521b8f221c00def826f6666bb29f6ba89c69c22437cea0fa2821c49c0"},
	} {
		g, st, err := Generate(streamParams(c.n), rand.New(rand.NewPCG(c.seed, 0)))
		if err != nil {
			t.Fatalf("n=%d seed %d: %v", c.n, c.seed, err)
		}
		if fp := g.Fingerprint(); fp != c.fp || st.Attempts != 1 {
			t.Errorf("n=%d seed %d: fingerprint %s after %d attempts, want %s after 1", c.n, c.seed, fp, st.Attempts, c.fp)
		}
	}
}

// TestStreamMemoryCeiling asserts the streaming construction allocates
// O(edges), not O(n²): a quadratic intermediate at n=10,000 would cost
// hundreds of megabytes (5000² ints alone is 200 MB); the whole build must
// stay under a ceiling a few times the edge storage. TotalAlloc is
// cumulative, so the measurement is immune to GC timing.
func TestStreamMemoryCeiling(t *testing.T) {
	p := streamParams(10000)
	rng := rand.New(rand.NewPCG(7, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := GenerateUnscreened(p, rng)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("GenerateUnscreened: %v", err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const ceiling = 48 << 20
	if allocated > ceiling {
		t.Fatalf("n=10k unscreened build allocated %d MB, ceiling %d MB (edges: %d)",
			allocated>>20, ceiling>>20, g.EdgeCount())
	}
}

// TestStreamFingerprintPermutationStability: the content fingerprint must
// not depend on edge insertion order at scale — resume/caching keys on it.
func TestStreamFingerprintPermutationStability(t *testing.T) {
	p := streamParams(2000)
	g, err := GenerateUnscreened(p, rand.New(rand.NewPCG(11, 0)))
	if err != nil {
		t.Fatalf("GenerateUnscreened: %v", err)
	}
	fp := g.Fingerprint()
	perm := g.Clone()
	rng := rand.New(rand.NewPCG(12, 0))
	for r := perm.Data; r < perm.Total; r++ {
		ls := perm.LeftNeighbors(r)
		lefts := make([]int, len(ls))
		for i, l := range ls {
			lefts[i] = int(l)
		}
		rng.Shuffle(len(lefts), func(i, j int) { lefts[i], lefts[j] = lefts[j], lefts[i] })
		perm.SetNeighbors(r, lefts)
	}
	if err := perm.Validate(); err != nil {
		t.Fatalf("permuted graph invalid: %v", err)
	}
	if perm.Fingerprint() != fp {
		t.Error("fingerprint changed under edge-order permutation")
	}
}

// TestClosedPairsHashMatchesKernel differentially checks the O(edges)
// hashed pair scan against the kernel-backed subset scan on unscreened
// small graphs, where both are exact for size 2.
func TestClosedPairsHashMatchesKernel(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g, err := GenerateUnscreened(DefaultParams(), rand.New(rand.NewPCG(seed, 0)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := defect.ScanDataLevel(g, 2)
		got := closedPairsHash(g)
		if len(want) != len(got) {
			t.Fatalf("seed %d: kernel found %d pairs, hash found %d", seed, len(want), len(got))
		}
		for i := range want {
			if !slices.Equal(want[i].Lefts, got[i].Lefts) || !slices.Equal(want[i].Rights, got[i].Rights) {
				t.Fatalf("seed %d: finding %d differs: kernel %v, hash %v", seed, i, want[i], got[i])
			}
		}
	}
	// A hand-built closed pair both scanners must agree on: two data nodes
	// wired to exactly the same two checks.
	b := graph.NewBuilder(4)
	b.AddLevel(0, 4, 2)
	b.AddLevel(4, 2, 1)
	b.AddLevel(4, 2, 1)
	g := b.Graph()
	g.SetNeighbors(4, []int{0, 1, 2})
	g.SetNeighbors(5, []int{0, 1, 3})
	g.SetNeighbors(6, []int{4, 5})
	g.SetNeighbors(7, []int{4})
	fs := closedPairsHash(g)
	if len(fs) != 1 || !slices.Equal(fs[0].Lefts, []int{0, 1}) {
		t.Fatalf("hand-built closed pair not found: %v", fs)
	}
}
