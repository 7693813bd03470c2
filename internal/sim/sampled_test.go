package sim

import (
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

func unscreened96(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := core.GenerateUnscreened(core.DefaultParams(), rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClassifyCertificateSound is the differential battery for the
// structural proofs: on unscreened 96-node graphs (which carry real
// defects), every pattern the classifier certifies must be recoverable
// per the scalar peeling kernel, and every kernel-batched pattern's
// sliced verdict must agree with the scalar kernel. This is the soundness
// property the whole screening rate rests on.
func TestClassifyCertificateSound(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := unscreened96(t, seed)
		c := decode.NewCSR(g)
		sp := NewStratifiedSampler(c)
		ref := decode.NewKernel(c)
		rng := rand.New(rand.NewPCG(seed+100, 0))
		for k := 2; k <= 6; k++ {
			sp.idx = make([]int, k)
			certified, evaluated := 0, 0
			for trial := 0; trial < 4000; trial++ {
				sp.draw.Draw(sp.idx, rng)
				strat, ok := sp.classify(k)
				if strat < 1 || strat > k {
					t.Fatalf("seed %d k=%d: stratum %d out of range", seed, k, strat)
				}
				want := ref.Recoverable(sp.idx)
				if ok {
					certified++
					if !want {
						t.Fatalf("seed %d k=%d: certificate claimed recoverable for failing pattern %v",
							seed, k, sp.idx)
					}
				} else {
					evaluated++
				}
			}
			if certified == 0 {
				t.Errorf("seed %d k=%d: certificate never fired over 4000 trials", seed, k)
			}
			_ = evaluated
		}
	}
}

// TestSampledMatchesScalarVerdicts runs full blocks and cross-checks the
// pooled tally against a scalar-kernel replay of the identical RNG
// stream.
func TestSampledMatchesScalarVerdicts(t *testing.T) {
	g := unscreened96(t, 7)
	c := decode.NewCSR(g)
	const k, trials = 5, 20000
	sp := NewStratifiedSampler(c)
	blk, err := sp.SampleBlock(context.Background(), k, trials, 42, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the stream with the scalar kernel.
	rng := rand.New(rand.NewPCG(42, uint64(k)<<32|3))
	ref := decode.NewKernel(c)
	idx := make([]int, k)
	draw := combin.NewSubsetDraw(g.Total)
	var hits int64
	for i := 0; i < trials; i++ {
		draw.Draw(idx, rng)
		if slices.Min(idx) < g.Data && !ref.Recoverable(idx) {
			hits++
		}
	}
	tally := blk.Tally()
	if tally.Trials != trials {
		t.Fatalf("block tallied %d trials, want %d", tally.Trials, trials)
	}
	if tally.Hits != hits {
		t.Fatalf("block found %d failures, scalar replay found %d", tally.Hits, hits)
	}
	for _, w := range blk.Witnesses {
		if !slices.IsSorted(w) || ref.Recoverable(w) {
			t.Fatalf("witness %v is unsorted or recoverable", w)
		}
	}
	if blk.Screened == 0 {
		t.Error("screening never resolved a pattern")
	}
}

// TestSampledWorkerCountIndependence: the acceptance bit — same seed,
// same result, any worker count.
func TestSampledWorkerCountIndependence(t *testing.T) {
	g := unscreened96(t, 11)
	opts := SampledOptions{Seed: 9, MaxTrials: 40000, BlockSize: 4096, Epsilon: -1, Workers: 1}
	want, err := SampleStratifiedCtx(context.Background(), g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7} {
		opts.Workers = w
		got, err := SampleStratifiedCtx(context.Background(), g, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", w, got, want)
		}
	}
	if want.Tally.Trials != 40000 {
		t.Fatalf("epsilon disabled but only %d trials run", want.Tally.Trials)
	}
}

// TestSampledStoppingRule pins the planned-precision contract: the
// sampler stops at the first round boundary whose pooled half-width
// reaches epsilon, and never earlier than the schedule allows.
func TestSampledStoppingRule(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	// Screened graph at k=2: failures are essentially absent, so the
	// zero-hit half-width math governs. One 4096-trial round gives
	// hw ≈ 1.92/4100 ≈ 4.7e-4; epsilon 1e-3 must stop after round one.
	res, err := SampleStratifiedCtx(context.Background(), g, 2, SampledOptions{
		Seed: 5, MaxTrials: 1 << 20, BlockSize: 4096, Epsilon: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 || res.Tally.Trials != 4096 {
		t.Fatalf("stopping rule fired after %d rounds / %d trials, want 1 round / 4096 trials",
			len(res.Rounds), res.Tally.Trials)
	}
	if hw := res.HalfWidth(); hw > 1e-3 {
		t.Fatalf("reported half-width %v exceeds the target", hw)
	}
	// The trajectory is recorded for every round and is nonincreasing on a
	// zero-hit run.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].HalfWidth > res.Rounds[i-1].HalfWidth {
			t.Fatal("half-width widened across rounds on a zero-hit run")
		}
	}
}

// TestSampledPlanSchedule pins the doubling schedule and its exact tiling
// of the trial budget.
func TestSampledPlanSchedule(t *testing.T) {
	nBlocks, rounds := SampledPlan(100000, 4096)
	if nBlocks != 25 {
		t.Fatalf("nBlocks = %d, want 25", nBlocks)
	}
	want := [][2]int64{{0, 1}, {1, 3}, {3, 7}, {7, 15}, {15, 25}}
	if !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds = %v, want %v", rounds, want)
	}
	var trials int64
	for b := int64(0); b < nBlocks; b++ {
		n := SampledBlockTrials(100000, 4096, b)
		if n <= 0 || n > 4096 {
			t.Fatalf("block %d has %d trials", b, n)
		}
		trials += n
	}
	if trials != 100000 {
		t.Fatalf("blocks tile %d trials, want 100000", trials)
	}
	if n, r := SampledPlan(0, 4096); n != 0 || r != nil {
		t.Fatal("empty budget must plan no blocks")
	}
}

// TestProfileWorkerCountIndependence is the sampleK regression test: the
// same seed must produce the identical profile no matter the worker
// count, including when trials % workers != 0.
func TestProfileWorkerCountIndependence(t *testing.T) {
	g := unscreened96(t, 2)
	base := ProfileOptions{Trials: 100003, MinK: 4, MaxK: 5, Seed: 77, Workers: 1, ExhaustiveLimit: 1}
	want, err := FailureProfileCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5, 8} {
		opts := base
		opts.Workers = w
		got, err := FailureProfileCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := base.MinK; k <= base.MaxK; k++ {
			if got.Fail[k] != want.Fail[k] {
				t.Fatalf("workers=%d k=%d: tally %v, want %v (worker-count dependence)",
					w, k, got.Fail[k], want.Fail[k])
			}
		}
	}
}

// TestSampledArchivalScale is the tentpole smoke: a sampled certification
// at n=10,000 and k=5 reaches the 1e-4 half-width target from a cold
// start in seconds, with screening resolving nearly every pattern.
func TestSampledArchivalScale(t *testing.T) {
	p := core.DefaultParams()
	p.TotalNodes = 10000
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SampleStratifiedCtx(context.Background(), g, 5, SampledOptions{Seed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	if hw := res.HalfWidth(); hw > 1e-4 {
		t.Fatalf("half-width %v did not reach the 1e-4 default target (trials %d)", hw, res.Tally.Trials)
	}
	if res.ScreenRate() < 0.9 {
		t.Errorf("screening resolved only %.1f%% of patterns at n=10k", 100*res.ScreenRate())
	}
	if res.Tally.Hits > 0 && len(res.Witnesses) == 0 {
		t.Error("failures tallied but no witness recorded")
	}
}

// TestSampledBlockLeavesMasksUnbuilt: the sampled path walks adjacency
// only, so a SampleBlock must not make the shared CSR build its dense
// mask tables — at archival scale they are the gigabytes the sampler
// exists to avoid.
func TestSampledBlockLeavesMasksUnbuilt(t *testing.T) {
	p := core.DefaultParams()
	p.TotalNodes = 20000
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	c := decode.NewCSR(g)
	blk, err := NewStratifiedSampler(c).SampleBlock(context.Background(), 40, 4096, 1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Tally().Trials != 4096 {
		t.Fatalf("block tallied %d trials, want 4096", blk.Tally().Trials)
	}
	if c.MasksBuilt() {
		t.Fatal("SampleBlock built the CSR's dense mask tables")
	}
}
