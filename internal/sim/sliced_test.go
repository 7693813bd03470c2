package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/obs"
)

// oracleScanRange is the scan oracle the sliced driver is checked
// against: it shares nothing with the driver but recordFailure — every
// rank is unranked from scratch and decided by the reference peeling
// decoder, one pattern at a time. The rank range is split across
// GOMAXPROCS goroutines only to bound the test's wall time; each part's
// witnesses are folded back in through recordFailure.
func oracleScanRange(g *graph.Graph, k int, lo, hi int64, maxFailures int) RangeResult {
	parts := make([]RangeResult, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := make([]int, k)
			for r := lo + int64(i); r < hi; r += int64(len(parts)) {
				combin.GrayUnrank(idx, g.Total, r)
				parts[i].Tested++
				if !decode.ReferenceRecoverable(g, idx) {
					parts[i].FailureCount++
					parts[i].Failures = recordFailure(parts[i].Failures, idx, maxFailures)
				}
			}
		}()
	}
	wg.Wait()
	var res RangeResult
	for _, p := range parts {
		res.Tested += p.Tested
		res.FailureCount += p.FailureCount
		for _, f := range p.Failures {
			res.Failures = recordFailure(res.Failures, f, maxFailures)
		}
	}
	return res
}

// slicedTestGraphs returns small, structurally diverse graphs whose rank
// spaces are exhaustively scannable in a test: mirrored systems (dense
// failure sets at low k), and seeded random cascades with shared checks
// and multi-level structure.
func slicedTestGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	gs := []*graph.Graph{mirrorGraph(4), mirrorGraph(6)}
	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x517CED))
		for {
			data := 4 + rng.IntN(8)
			b := graph.NewBuilder(data)
			leftFirst, leftCount := 0, data
			for li := 0; li < 1+rng.IntN(2); li++ {
				rightCount := max(1, leftCount/2)
				rf := b.AddLevel(leftFirst, leftCount, rightCount)
				leftFirst, leftCount = rf, rightCount
				if leftCount < 2 {
					break
				}
			}
			g := b.Graph()
			for _, lv := range g.Levels {
				for r := lv.RightFirst; r < lv.RightFirst+lv.RightCount; r++ {
					deg := 1 + rng.IntN(min(3, lv.LeftCount))
					perm := rng.Perm(lv.LeftCount)
					lefts := make([]int, 0, deg)
					for _, p := range perm[:deg] {
						lefts = append(lefts, lv.LeftFirst+p)
					}
					g.SetNeighbors(r, lefts)
				}
			}
			if g.Total <= 18 {
				gs = append(gs, g)
				break
			}
		}
	}
	return gs
}

// TestSlicedScanMatchesScalarExhaustive scans every whole rank space of
// every small graph at k ≤ 5, and of an unscreened n=256 graph (four mask
// words) at k ≤ 3, and compares against the one-pattern-at-a-time scalar
// oracle: RangeResults (counts AND witness lists) must be bit-identical.
func TestSlicedScanMatchesScalarExhaustive(t *testing.T) {
	ctx := context.Background()
	type tc struct {
		g    *graph.Graph
		maxK int
	}
	var cases []tc
	for _, g := range slicedTestGraphs(t) {
		cases = append(cases, tc{g, 5})
	}
	p := core.DefaultParams()
	p.TotalNodes = 256
	wide, err := core.GenerateUnscreened(p, rand.New(rand.NewPCG(256, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{wide, 3})
	for gi, c := range cases {
		g := c.g
		for k := 1; k <= min(c.maxK, g.Total); k++ {
			total, ok := combin.BinomialInt64(g.Total, k)
			if !ok {
				t.Fatal("rank space overflow")
			}
			want := oracleScanRange(g, k, 0, total, int(total))
			got, err := ScanRangeCtx(ctx, g, k, 0, total, int(total))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d (n=%d) k=%d: sliced %+v, oracle %+v", gi, g.Total, k, got, want)
			}
		}
	}
}

// TestSlicedScanSubranges compares the sliced scan with the oracle on
// random, deliberately word-unaligned subranges — the shard shapes
// campaign tiling produces — including a small maxFailures cap so witness
// truncation is identical.
func TestSlicedScanSubranges(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 0x5AB))
	for gi, g := range slicedTestGraphs(t) {
		for k := 2; k <= min(4, g.Total); k++ {
			total, _ := combin.BinomialInt64(g.Total, k)
			for trial := 0; trial < 8; trial++ {
				lo := rng.Int64N(total)
				hi := lo + rng.Int64N(total-lo+1)
				maxF := 1 + int(rng.Int64N(4))
				want := oracleScanRange(g, k, lo, hi, maxF)
				got, err := ScanRangeCtx(ctx, g, k, lo, hi, maxF)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d k=%d [%d,%d) maxF=%d: sliced %+v, oracle %+v",
						gi, k, lo, hi, maxF, got, want)
				}
			}
		}
	}
}

// TestSlicedWorkerIndependence: 1/3/4/16 workers must produce
// bit-identical KResults, all equal to the oracle's whole-space scan — the
// worker-count-determinism guarantee the campaign layer rests on.
func TestSlicedWorkerIndependence(t *testing.T) {
	ctx := context.Background()
	g := mirrorGraph(8) // k=3 has many failures → witness merging is exercised
	for k := 2; k <= 3; k++ {
		total, _ := combin.BinomialInt64(g.Total, k)
		rr := oracleScanRange(g, k, 0, total, 8)
		want := KResult{K: k, Tested: rr.Tested, FailureCount: rr.FailureCount, Failures: rr.Failures}
		for _, workers := range []int{1, 3, 4, 16} {
			got, err := ExhaustiveKCtx(ctx, g, k, 8, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d workers=%d: sliced %+v, oracle %+v", k, workers, got, want)
			}
		}
	}
}

// TestSlicedProgressCountsPatterns is the satellite-fix regression: the
// sliced path evaluates 64 patterns per kernel word, and the progress
// counters must report evaluated patterns (so comb/sec gauges and
// campaign ETAs stay truthful), not words. The flushed totals must equal
// the combin count exactly.
func TestSlicedProgressCountsPatterns(t *testing.T) {
	reg := obs.NewRegistry()
	old := Metrics()
	SetMetrics(reg)
	defer SetMetrics(old)

	g := mirrorGraph(6)
	const k = 3
	total, _ := combin.BinomialInt64(g.Total, k)
	rr, err := scanRangeSliced(context.Background(), g, k, 0, total, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Tested != total {
		t.Fatalf("RangeResult.Tested = %d, want C(%d,%d) = %d", rr.Tested, g.Total, k, total)
	}
	if got := reg.Counter(MetricCombinationsTested).Value(); got != total {
		t.Fatalf("%s = %d, want %d (patterns, not words)", MetricCombinationsTested, got, total)
	}
	if got := reg.Counter(MetricFailuresFound).Value(); got != rr.FailureCount {
		t.Fatalf("%s = %d, want %d", MetricFailuresFound, got, rr.FailureCount)
	}
}

// TestSlicedPruningSoundness re-evaluates every pattern the sliced scan
// decided — including the certificate-pruned lanes and monotonicity-
// pruned whole runs, which never reach the bit-sliced fixpoint — with
// the scalar kernel, via the scanner's per-verdict hook. It also checks
// the hook saw every rank exactly once, in revolving-door order.
func TestSlicedPruningSoundness(t *testing.T) {
	ctx := context.Background()
	for gi, g := range slicedTestGraphs(t) {
		csr := decode.NewCSR(g)
		kn := decode.NewKernel(csr)
		for k := 1; k <= min(4, g.Total); k++ {
			total, _ := combin.BinomialInt64(g.Total, k)
			next := int64(0)
			hook := func(rank int64, idx []int, recoverable bool) {
				if rank != next {
					t.Fatalf("graph %d k=%d: verdict for rank %d, want %d", gi, k, rank, next)
				}
				next++
				if want := kn.Recoverable(idx); recoverable != want {
					t.Fatalf("graph %d k=%d rank %d: sliced verdict %v, scalar %v (erased %v)",
						gi, k, rank, recoverable, want, idx)
				}
			}
			if _, err := scanRangeSliced(ctx, g, k, 0, total, 4, hook); err != nil {
				t.Fatal(err)
			}
			if next != total {
				t.Fatalf("graph %d k=%d: hook saw %d verdicts, want %d", gi, k, next, total)
			}
		}
	}
}

// TestSlicedGoldenTornado96 pins the scan against the precompiled
// certification results of the three paper graphs: per-k tested /
// failure counts, first failure, and the exact critical sets. Graphs 2
// and 3 first fail at k=4; graph 1 survives to k=5 with 16 critical sets
// (61M patterns — the sliced kernel's home turf).
func TestSlicedGoldenTornado96(t *testing.T) {
	type pin struct {
		file         string
		firstFailure int
		perK         map[int][2]int64 // k -> {failures, tested}
		critical     [][]int
	}
	pins := []pin{
		{
			file:         "tornado96-1.graphml",
			firstFailure: 5,
			perK: map[int][2]int64{
				1: {0, 96}, 2: {0, 4560}, 3: {0, 142880}, 4: {0, 3321960}, 5: {16, 61124064},
			},
			critical: [][]int{
				{1, 9, 10, 16, 17}, {1, 9, 10, 17, 43}, {1, 15, 16, 25, 42},
				{2, 15, 23, 27, 30}, {4, 25, 29, 41, 47}, {5, 8, 18, 20, 47},
				{5, 16, 18, 20, 38}, {5, 18, 19, 35, 43}, {6, 8, 26, 37, 47},
				{6, 15, 26, 30, 37}, {6, 16, 28, 36, 38}, {8, 16, 20, 38, 47},
				{11, 16, 20, 38, 43}, {15, 16, 20, 30, 38}, {19, 25, 28, 29, 34},
				{20, 26, 28, 36, 37},
			},
		},
		{
			file:         "tornado96-2.graphml",
			firstFailure: 4,
			perK: map[int][2]int64{
				1: {0, 96}, 2: {0, 4560}, 3: {0, 142880}, 4: {1, 3321960},
			},
			critical: [][]int{{0, 3, 13, 14}},
		},
		{
			file:         "tornado96-3.graphml",
			firstFailure: 4,
			perK: map[int][2]int64{
				1: {0, 96}, 2: {0, 4560}, 3: {0, 142880}, 4: {3, 3321960},
			},
			critical: [][]int{{2, 14, 56, 61}, {22, 33, 34, 39}, {27, 29, 30, 38}},
		},
	}
	for _, p := range pins {
		p := p
		t.Run(p.file, func(t *testing.T) {
			if p.firstFailure == 5 && testing.Short() {
				t.Skip("k=5 golden pin (61M patterns) skipped in -short mode")
			}
			g, err := graphml.ReadFile("../../precompiled/" + p.file)
			if err != nil {
				t.Fatal(err)
			}
			res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 5})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || res.FirstFailure != p.firstFailure {
				t.Fatalf("first failure = %d (found=%v), want %d", res.FirstFailure, res.Found, p.firstFailure)
			}
			if len(res.PerK) != len(p.perK) {
				t.Fatalf("examined %d cardinalities, want %d", len(res.PerK), len(p.perK))
			}
			for _, kr := range res.PerK {
				want, ok := p.perK[kr.K]
				if !ok {
					t.Fatalf("unexpected cardinality %d examined", kr.K)
				}
				if kr.FailureCount != want[0] || kr.Tested != want[1] {
					t.Fatalf("k=%d: %d failures / %d tested, want %d / %d",
						kr.K, kr.FailureCount, kr.Tested, want[0], want[1])
				}
			}
			last := res.PerK[len(res.PerK)-1]
			if !reflect.DeepEqual(last.Failures, p.critical) {
				t.Fatalf("critical sets = %v, want %v", last.Failures, p.critical)
			}
		})
	}
}

// benchmark-style sanity: the sliced whole-space scan of the 96-node
// graph at k=3 in a plain test keeps the run honest on CI without the
// full benchreport (the 8× gate lives there).
func TestSlicedScanRange96Smoke(t *testing.T) {
	g := ctxTestGraph(t)
	const k = 3
	total, _ := combin.BinomialInt64(g.Total, k)
	want := oracleScanRange(g, k, 0, total, 8)
	got, err := ScanRangeCtx(context.Background(), g, k, 0, total, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sliced %+v, oracle %+v", got, want)
	}
}

// TestSlicedK6SpotCheck spot-checks the scan at k=6 on a real certified
// graph — the cardinality the full-graph exhaustive tests stop short of
// (C(96,6) = 927M patterns). Erasure failure is monotone, so tornado96-1's
// pinned k=5 critical set {1,9,10,16,17} plus any sixth node must fail;
// the test scans a 4M-pattern window centered on one such witness and
// requires the result to equal the oracle's, including at least that one
// failure.
func TestSlicedK6SpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("k=6 spot check (4M patterns, sliced and oracle) skipped in -short mode")
	}
	g, err := graphml.ReadFile("../../precompiled/tornado96-1.graphml")
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	witness := []int{1, 9, 10, 16, 17, 18}
	if decode.ReferenceRecoverable(g, witness) {
		t.Fatalf("witness %v is a superset of a pinned k=5 critical set and must fail", witness)
	}
	total, ok := combin.BinomialInt64(g.Total, k)
	if !ok {
		t.Fatal("C(96,6) overflows int64?")
	}
	r := combin.GrayRank(witness, g.Total)
	lo, hi := max(r-2<<20, 0), min(r+2<<20, total)
	want := oracleScanRange(g, k, lo, hi, 64)
	got, err := ScanRangeCtx(context.Background(), g, k, lo, hi, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=6 window [%d,%d): sliced %+v != oracle %+v", lo, hi, got, want)
	}
	if got.FailureCount == 0 {
		t.Fatalf("k=6 window [%d,%d) around witness rank %d found no failures", lo, hi, r)
	}
}

// TestMasksOnDemandRaceFree starts mask consumers all at once over one
// freshly built CSR: every goroutine's Kernel construction races to build
// the dense tables, and each goroutine also runs a sliced scan over its
// own rank range. Under -race this proves the on-demand build is safe;
// every verdict is checked against the reference decoder.
func TestMasksOnDemandRaceFree(t *testing.T) {
	g := unscreened96(t, 4)
	c := decode.NewCSR(g)
	const workers, k = 8, 2
	total, _ := combin.BinomialInt64(g.Total, k)
	ranges := combin.SplitRanges(total, workers)
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			kn := decode.NewKernel(c)
			rng := rand.New(rand.NewPCG(uint64(w), 9))
			erased := make([]int, 5)
			for i := 0; i < 200; i++ {
				for j := range erased {
					erased[j] = rng.IntN(g.Total)
				}
				if got, want := kn.Recoverable(erased), decode.ReferenceRecoverable(g, erased); got != want {
					errs <- fmt.Errorf("worker %d: Kernel says %v for %v, reference %v", w, got, erased, want)
					return
				}
			}
			lo, hi := ranges[w][0], ranges[w][1]
			res, err := ScanRangeCtx(context.Background(), g, k, lo, hi, int(hi-lo))
			if err != nil {
				errs <- err
				return
			}
			var want int64
			idx := make([]int, k)
			for r := lo; r < hi; r++ {
				combin.GrayUnrank(idx, g.Total, r)
				if !decode.ReferenceRecoverable(g, idx) {
					want++
				}
			}
			if res.FailureCount != want {
				errs <- fmt.Errorf("worker %d: sliced scan of [%d,%d) found %d failures, reference %d", w, lo, hi, res.FailureCount, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !c.MasksBuilt() {
		t.Fatal("Kernel construction left the mask tables unbuilt")
	}
}
