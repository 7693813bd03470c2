package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
	"time"

	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/sim"
)

// The certify section measures the archival-scale sampled certification
// path (DESIGN.md "Certification at scale") on a streamed n=10,000 graph:
// end-to-end time to the default 1e-4 Wilson half-width target at k=5, the
// precision trajectory (CI width versus cumulative trials), the screening
// rejection rate, and the sampler's per-block allocation profile. The
// -check gates assert the half-width target is met, screening resolves the
// overwhelming majority of patterns, and the SampleBlock hot loop performs
// no per-trial allocations (allocs per block are identical across an 8x
// trial-count spread), and NewCSR allocates memory linear in the graph:
// the dense mask tables are built only by the consumers that read them
// (the exhaustive scan and the planner's Kernel), never on this path.

// certifyNodes is the graph size of the certify section: the archival
// scale the streaming generation path and stratified sampler target.
const certifyNodes = 10000

// certifyK is the certified cardinality, matching the scan sections.
const certifyK = scanK

// certifyBlockSmall and certifyBlockLarge are the two block trial counts
// of the fixed-allocation gate: if SampleBlock allocated per trial, the
// larger block would report more allocs/op.
const (
	certifyBlockSmall = 4096
	certifyBlockLarge = 32768
)

type certifyRound struct {
	Trials    int64   `json:"trials"`
	HalfWidth float64 `json:"ci_half_width"`
}

// certifyReport is the BENCH_certify.json payload.
type certifyReport struct {
	GeneratedUnix int64   `json:"generated_unix"`
	GoVersion     string  `json:"go_version"`
	Graph         string  `json:"graph"`
	Nodes         int     `json:"nodes"`
	DataNodes     int     `json:"data_nodes"`
	K             int     `json:"k"`
	Epsilon       float64 `json:"epsilon"`
	// GenerateSeconds is the streamed construction + screening time.
	GenerateSeconds float64 `json:"generate_seconds"`
	// CertifySeconds is the wall time of the certification run.
	CertifySeconds float64 `json:"certify_seconds"`
	// Trials/Estimate/CIHalfWidth/ScreenRate summarize the run: total
	// patterns drawn, pooled failure estimate, achieved 95% Wilson CI
	// half-width, and the fraction resolved by structural proof alone.
	Trials      int64   `json:"trials"`
	Estimate    float64 `json:"estimate"`
	CIHalfWidth float64 `json:"ci_half_width"`
	ScreenRate  float64 `json:"screen_rate"`
	// PatternsPerSec is the certification throughput (Trials over wall
	// time, single process, all workers).
	PatternsPerSec float64 `json:"patterns_per_sec"`
	// Rounds is the precision trajectory: pooled CI half-width after each
	// doubling round of the stopping-rule schedule.
	Rounds     []certifyRound `json:"rounds"`
	Benchmarks []result       `json:"benchmarks"`
	// CSRAllocBytes is what decode.NewCSR allocated for this graph
	// (TotalAlloc delta), and CSRAllocBound the linear-in-edges ceiling
	// decode.CSRAllocBound sets for it. CI gates bytes <= bound.
	CSRAllocBytes uint64 `json:"csr_alloc_bytes"`
	CSRAllocBound uint64 `json:"csr_alloc_bound"`
	// SamplerAllocDelta is allocs/op of the large block minus the small
	// one. Zero means SampleBlock's allocations are a per-call constant —
	// the hot loop itself allocates nothing per trial. CI gates this at 0.
	SamplerAllocDelta int64 `json:"sampler_alloc_delta"`
}

func certifySection() certifyReport {
	p := core.DefaultParams()
	p.TotalNodes = certifyNodes
	genStart := time.Now()
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		panic("benchreport: generating certify graph: " + err.Error())
	}
	genElapsed := time.Since(genStart)

	crep := certifyReport{
		GeneratedUnix:   time.Now().Unix(),
		GoVersion:       runtime.Version(),
		Graph:           "core.Generate(DefaultParams{TotalNodes: 10000}, PCG(2006,0))",
		Nodes:           g.Total,
		DataNodes:       g.Data,
		K:               certifyK,
		Epsilon:         sim.DefaultSampledEpsilon,
		GenerateSeconds: genElapsed.Seconds(),
	}

	certStart := time.Now()
	res, err := sim.SampleStratifiedCtx(context.Background(), g, certifyK, sim.SampledOptions{Seed: 2006})
	if err != nil {
		panic("benchreport: sampled certification: " + err.Error())
	}
	elapsed := time.Since(certStart)
	crep.CertifySeconds = elapsed.Seconds()
	crep.Trials = res.Tally.Trials
	crep.Estimate = res.Estimate()
	crep.CIHalfWidth = res.HalfWidth()
	crep.ScreenRate = res.ScreenRate()
	crep.PatternsPerSec = float64(res.Tally.Trials) / elapsed.Seconds()
	for _, rd := range res.Rounds {
		crep.Rounds = append(crep.Rounds, certifyRound{Trials: rd.Trials, HalfWidth: rd.HalfWidth})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := decode.NewCSR(g)
	runtime.ReadMemStats(&after)
	crep.CSRAllocBytes = after.TotalAlloc - before.TotalAlloc
	crep.CSRAllocBound = decode.CSRAllocBound(g.EdgeCount(), g.Total)
	crep.Benchmarks = append(crep.Benchmarks,
		run("sampled_block_4k", certifyBlockSmall, false, func(b *testing.B) {
			benchSampledBlock(b, c, certifyBlockSmall)
		}),
		run("sampled_block_32k", certifyBlockLarge, false, func(b *testing.B) {
			benchSampledBlock(b, c, certifyBlockLarge)
		}),
	)
	crep.SamplerAllocDelta = crep.Benchmarks[1].AllocsPerOp - crep.Benchmarks[0].AllocsPerOp
	return crep
}

// benchSampledBlock measures one deterministic sampled block per op on a
// warm sampler, witnesses disabled so the only allocations are
// SampleBlock's per-call constants (the RNG and the strata tally).
func benchSampledBlock(b *testing.B, c *decode.CSR, trials int64) {
	ctx := context.Background()
	sp := sim.NewStratifiedSampler(c)
	if _, err := sp.SampleBlock(ctx, certifyK, trials, 1, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.SampleBlock(ctx, certifyK, trials, 1, uint64(i%16), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// checkCertify applies the certify gates, reporting failures to stderr.
func checkCertify(crep certifyReport) bool {
	failed := false
	if crep.SamplerAllocDelta != 0 {
		fmt.Fprintf(os.Stderr, "benchreport: SampleBlock allocs grew by %d across an 8x trial-count spread (%d -> %d); the sampler hot loop must not allocate per trial\n",
			crep.SamplerAllocDelta, crep.Benchmarks[0].AllocsPerOp, crep.Benchmarks[1].AllocsPerOp)
		failed = true
	}
	if crep.CSRAllocBytes > crep.CSRAllocBound {
		fmt.Fprintf(os.Stderr, "benchreport: NewCSR allocated %d bytes at n=%d, above the linear-in-edges bound %d; the CSR must not build dense per-node tables\n",
			crep.CSRAllocBytes, crep.Nodes, crep.CSRAllocBound)
		failed = true
	}
	if crep.CIHalfWidth > crep.Epsilon {
		fmt.Fprintf(os.Stderr, "benchreport: certification stopped at CI half-width %.3g, above the %.0e target\n",
			crep.CIHalfWidth, crep.Epsilon)
		failed = true
	}
	if crep.ScreenRate < 0.9 {
		fmt.Fprintf(os.Stderr, "benchreport: structural screening resolved only %.1f%% of sampled patterns at n=%d; the certificate screen has regressed\n",
			100*crep.ScreenRate, crep.Nodes)
		failed = true
	}
	return failed
}
