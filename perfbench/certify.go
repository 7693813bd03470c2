package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"tornado"
	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/sim"
)

// The exhaustive-96 pipeline: the paper's §3 certification of the screened
// 96-node graph with default options.
const (
	improveMaxK = 4 // Improve(maxK 4)
	scanMaxK    = 5 // WorstCase(MaxK 5, KeepGoing)
)

// The certify-100k point: a streamed n=100,000 graph, sampled at k=400
// where the structural screen resolves under 90% of trials, so both the
// dense CSR and the sliced residue path do real work.
const (
	bigNodes  = 100_000
	bigK      = 400
	bigBuilds = 15 // set-up builds of the graph; setup_s is their median
)

// splitmix derives independent 64-bit seeds from the run seed.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// freeMemory drops garbage between repetitions so one repetition's heap
// (the n=100k CSR is about 2.4 GB) never stacks on the next one's.
func freeMemory() { debug.FreeOSMemory() }

// exhaustiveGraphs is the batch of seed-derived 96-node graphs
// exhaustive-96 builds in set-up; setupBatches is how often set-up is
// repeated. A run certifies the first certifyCount(--seconds) of them.
const (
	exhaustiveGraphs = 24
	setupBatches     = 15
)

// Nominal cost of one certification on the 2-vCPU reference VM. A run's
// certification count follows from --seconds through it, never from the
// clock, so the same graphs and sampling seeds enter a run's figure
// whatever the host's speed at the moment.
const (
	exhaustiveNominal = 3 * time.Second // Improve + scan of one 96-node graph
	certifyNominal    = 7 * time.Second // one Certify(k=400) at n=100k
)

// certifyCount is how many certifications a run of length d makes: as
// many as fit at the nominal cost, at least three.
func certifyCount(d, nominal time.Duration) int { return max(3, int(d/nominal)) }

// builtGraph is one set-up graph and what building it cost.
type builtGraph struct {
	seed        uint64
	g           *tornado.Graph
	attempts    int
	closedPairs int
	generate    time.Duration
}

// graphCert is one exhaustive-96 certification: the timings of its calls
// and what they returned.
type graphCert struct {
	improve, total  time.Duration
	scan            [scanMaxK + 1]time.Duration
	rounds, rewires int
	tested          int64
	failuresK5      int64
}

// runExhaustive96 builds the batch of exhaustiveGraphs graphs (set-up,
// repeated setupBatches times), then certifies the first certifyCount of
// them. Its operation is one graph certified (Improve, then the scan);
// Improve's cost depends on the graph (2 to 9 rounds), and op_mean_ms
// averages it over the fixed batch. A traced run splits the count:
// the first half of the graphs untraced, to time the tracing overhead, then
// the same graphs traced.
func runExhaustive96(r *run) error {
	var graphs []builtGraph
	var batches []time.Duration
	for i := 0; i < setupBatches; i++ {
		start := time.Now()
		var err error
		if graphs, err = r.buildGraphs(); err != nil {
			return err
		}
		batches = append(batches, time.Since(start))
	}
	r.endToEnd("setup_s", median(seconds(batches)), "s")
	r.samples["setup_batches"] = len(batches)
	gens := make([]float64, len(graphs))
	for i, b := range graphs {
		gens[i] = b.generate.Seconds()
	}

	count := certifyCount(r.seconds, exhaustiveNominal)
	if r.trace {
		count = max(1, count/2)
	}
	r.rec.setOn(false)
	plain, err := r.certifyGraphs(graphs, count)
	if err != nil {
		return err
	}
	plainTotals := pick(plain, func(c graphCert) time.Duration { return c.total })
	plainTotal := mean(seconds(plainTotals))
	if !r.trace {
		r.reportOps(plainTotals, 0)
		r.samples["graphs"] = len(plain)
		return nil
	}

	r.rec.setOn(true)
	traced, err := r.certifyGraphs(graphs, count)
	if err != nil {
		return err
	}
	r.samples["graphs"] = len(traced)
	med := func(f func(c graphCert) float64) float64 {
		xs := make([]float64, len(traced))
		for i, c := range traced {
			xs[i] = f(c)
		}
		return median(xs)
	}
	attempts := make([]float64, len(graphs))
	closed := 0
	for i, b := range graphs {
		attempts[i] = float64(b.attempts)
		closed += b.closedPairs
	}
	r.perLayer("core.generate_s", median(gens), "s")
	r.perLayer("core.gen_attempts", median(attempts), "count")
	r.perLayer("core.closed_pairs", float64(closed), "count")
	r.perLayer("adjust.improve_s", med(func(c graphCert) float64 { return c.improve.Seconds() }), "s")
	r.perLayer("adjust.rounds", med(func(c graphCert) float64 { return float64(c.rounds) }), "count")
	r.perLayer("adjust.rewires", med(func(c graphCert) float64 { return float64(c.rewires) }), "count")
	for k := 1; k <= scanMaxK; k++ {
		r.perLayer(fmt.Sprintf("sim.scan_s.k%d", k), med(func(c graphCert) float64 { return c.scan[k].Seconds() }), "s")
	}
	r.perLayer("sim.patterns_tested", med(func(c graphCert) float64 { return float64(c.tested) }), "count")
	r.perLayer("sim.ns_per_pattern", med(func(c graphCert) float64 {
		var scan time.Duration
		for _, d := range c.scan {
			scan += d
		}
		return float64(scan.Nanoseconds()) / float64(c.tested)
	}), "ns")
	r.perLayer("sim.failures.k5", med(func(c graphCert) float64 { return float64(c.failuresK5) }), "count")
	tracedTotal := mean(seconds(pick(traced, func(c graphCert) time.Duration { return c.total })))
	r.perLayer("trace.overhead_ratio", tracedTotal/plainTotal, "ratio")

	// One CSR build: the dense masks are O(n²/64) words, tiny at n=96, so
	// this should stay flat when the CSR changes shape.
	r.traceCSR(graphs[0].g)
	return nil
}

func pick[T any](xs []T, f func(T) time.Duration) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// buildGraphs generates the set-up graphs, each from its own seed-derived
// seed, and checks the screen left no closed data pair in any of them.
func (r *run) buildGraphs() ([]builtGraph, error) {
	out := make([]builtGraph, exhaustiveGraphs)
	for i := range out {
		b := &out[i]
		b.seed = splitmix(r.seed, uint64(i))
		var gs tornado.GenStats
		var err error
		r.attempted++
		b.generate, err = r.timed("core.generate", nil, func(*opTrace) error {
			b.g, gs, err = tornado.Generate(tornado.DefaultParams(), b.seed)
			return err
		})
		if err != nil {
			r.failed++
			return nil, fmt.Errorf("generate seed %d: %w", b.seed, err)
		}
		b.attempts = gs.Attempts
		b.closedPairs = len(tornado.ScanClosedPairs(b.g))
		if b.closedPairs != 0 {
			r.violate("graph seed %d: %d closed data pairs after screening", b.seed, b.closedPairs)
		}
	}
	return out, nil
}

// certifyGraphs certifies the first count graphs of the batch, in order.
func (r *run) certifyGraphs(graphs []builtGraph, count int) ([]graphCert, error) {
	out := make([]graphCert, 0, count)
	for _, b := range graphs[:min(count, len(graphs))] {
		r.attempted++
		c, err := r.certifyGraph(b)
		if err != nil {
			r.failed++
			return nil, fmt.Errorf("certify graph seed %d: %w", b.seed, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// certifyGraph runs Improve(maxK 4), then WorstCase(MaxK 5, KeepGoing),
// both with default options, and checks what they returned. WorstCase with
// default options is one ExhaustiveKCtx per cardinality with the default
// failure cap and worker count; the benchmark makes those calls itself so
// that each cardinality gets its own span when traced.
func (r *run) certifyGraph(b builtGraph) (graphCert, error) {
	ctx := context.Background()
	var c graphCert
	root := r.rec.begin("certify", nil)
	start := time.Now()
	var improved *tornado.Graph
	var reports []tornado.AdjustReport
	var err error
	c.improve, err = r.timed("adjust.improve", root, func(*opTrace) error {
		improved, reports, err = tornado.ImproveCtx(ctx, b.g, improveMaxK, tornado.AdjustOptions{}, b.seed)
		return err
	})
	var wc tornado.WorstCaseResult
	for k := 1; k <= scanMaxK && err == nil; k++ {
		var kr sim.KResult
		c.scan[k], err = r.timed(fmt.Sprintf("sim.scan.k%d", k), root, func(*opTrace) error {
			kr, err = sim.ExhaustiveKCtx(ctx, improved, k, sim.DefaultMaxFailures, 0)
			return err
		})
		wc.PerK = append(wc.PerK, kr)
		wc.Tested += kr.Tested
	}
	c.total = time.Since(start)
	root.end()
	if err != nil {
		return c, err
	}
	for _, rep := range reports {
		c.rounds += rep.Rounds
		c.rewires += len(rep.Rewires)
	}
	c.tested = wc.Tested
	c.failuresK5 = wc.FailureCountAt(scanMaxK)
	r.checkWorstCase(b.seed, improved, reports, wc)
	return c, nil
}

// checkWorstCase holds whatever the seed: every cardinality was scanned in
// full, every recorded failing set really loses data, and a cardinality
// Improve reports cleared has no failure at or below it.
func (r *run) checkWorstCase(gseed uint64, g *tornado.Graph, reports []tornado.AdjustReport, wc tornado.WorstCaseResult) {
	if len(wc.PerK) != scanMaxK {
		r.violate("graph seed %d: scanned %d cardinalities, want %d", gseed, len(wc.PerK), scanMaxK)
	}
	for _, kr := range wc.PerK {
		want, _ := combin.BinomialInt64(g.Total, kr.K)
		if kr.Tested != want {
			r.violate("graph seed %d k=%d: tested %d patterns, want C(%d,%d)=%d", gseed, kr.K, kr.Tested, g.Total, kr.K, want)
		}
		if int64(len(kr.Failures)) > kr.FailureCount {
			r.violate("graph seed %d k=%d: %d witnesses but %d failures", gseed, kr.K, len(kr.Failures), kr.FailureCount)
		}
		for _, w := range kr.Failures {
			if len(w) != kr.K || decode.ReferenceRecoverable(g, w) {
				r.violate("graph seed %d k=%d: witness %v is not an unrecoverable %d-set", gseed, kr.K, w, kr.K)
			}
		}
	}
	for _, rep := range reports {
		if !rep.Cleared {
			continue
		}
		for k := 1; k <= rep.K; k++ {
			if n := wc.FailureCountAt(k); n != 0 {
				r.violate("graph seed %d: Improve cleared k=%d but WorstCase finds %d failures at k=%d", gseed, rep.K, n, k)
			}
		}
	}
}

// traceCSR times one decode.NewCSR and the heap it allocates.
func (r *run) traceCSR(g *tornado.Graph) *decode.CSR {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var c *decode.CSR
	d, _ := r.timed("decode.new_csr", nil, func(*opTrace) error {
		c = decode.NewCSR(g)
		return nil
	})
	runtime.ReadMemStats(&after)
	r.perLayer("decode.csr_build_s", d.Seconds(), "s")
	r.perLayer("decode.csr_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6, "MB")
	return c
}

// runCertify100k builds the streamed n=100k graph several times (set-up),
// then runs Certify(k=400) at the default epsilon certifyCount times, each
// with its own seed-derived sampling seed. Its operation is one Certify call.
func runCertify100k(r *run) error {
	ctx := context.Background()
	p := tornado.DefaultParams()
	p.TotalNodes = bigNodes
	// For about one seed in thirty, Generate at n=100k returns an error: the
	// streaming construction cannot match a tiny final level without
	// duplicate edges in 32 shuffles, and reports that instead of discarding
	// the attempt. Such a build counts as a failed operation of the run, and
	// set-up moves on to the next seed-derived graph seed.
	gseed := splitmix(r.seed, 0)
	var g *tornado.Graph
	var gens []time.Duration
	var gs tornado.GenStats
	for i := uint64(0); len(gens) < bigBuilds; {
		g = nil
		freeMemory()
		r.attempted++
		d, err := r.timed("core.generate", nil, func(*opTrace) error {
			var err error
			g, gs, err = tornado.Generate(p, gseed)
			return err
		})
		if err != nil {
			r.failed++
			r.note("generate n=%d, graph seed %d: %v", bigNodes, gseed, err)
			if i++; i >= 8 {
				return err
			}
			gseed = splitmix(r.seed, i)
			continue
		}
		gens = append(gens, d)
	}
	closed := len(tornado.ScanClosedPairs(g))
	if closed != 0 {
		r.violate("n=%d graph: %d closed data pairs after screening", bigNodes, closed)
	}
	r.endToEnd("setup_s", median(seconds(gens)), "s")

	certify := func(rep int) (time.Duration, *tornado.CertifyResult) {
		freeMemory()
		r.attempted++
		var res *tornado.CertifyResult
		d, err := r.timed("sim.certify", nil, func(*opTrace) error {
			var err error
			res, err = tornado.CertifyCtx(ctx, g, bigK, tornado.CertifyOptions{Seed: splitmix(r.seed, uint64(100+rep))})
			return err
		})
		if err != nil {
			r.failed++
			r.note("certify rep %d: %v", rep, err)
			return 0, nil
		}
		r.checkCertify(g, res)
		return d, res
	}
	repeat := func(count int) ([]time.Duration, *tornado.CertifyResult, int) {
		var ds []time.Duration
		var last *tornado.CertifyResult
		failures := 0
		for rep := 0; rep < count; rep++ {
			if d, res := certify(rep); res != nil {
				ds, last = append(ds, d), res
			} else {
				failures++
			}
		}
		return ds, last, failures
	}

	if !r.trace {
		ds, _, failures := repeat(certifyCount(r.seconds, certifyNominal))
		if len(ds) == 0 {
			return fmt.Errorf("no certification completed")
		}
		r.reportOps(ds, failures)
		r.samples["certifications"] = len(ds)
		r.samples["setup_generations"] = len(gens)
		return nil
	}

	// Traced run: one untraced certification for the overhead ratio, then
	// the traced calls — one NewCSR and one default-size SampleBlock on one
	// worker over it, then Certify itself.
	r.rec.setOn(false)
	plain, _, _ := repeat(1)
	r.rec.setOn(true)
	freeMemory()
	csr := r.traceCSR(g)
	var blk sim.SampledBlock
	bd, err := r.timed("sim.sample_block", nil, func(*opTrace) error {
		var err error
		blk, err = sim.NewStratifiedSampler(csr).SampleBlock(ctx, bigK, sim.DefaultSampledBlock, splitmix(r.seed, 99), 0, sim.DefaultMaxFailures)
		return err
	})
	if err != nil {
		return err
	}
	for _, w := range blk.Witnesses {
		if decode.ReferenceRecoverable(g, w) {
			r.violate("SampleBlock witness %v is recoverable", w)
		}
	}
	traced, res, _ := repeat(1)
	if len(plain) == 0 || res == nil {
		return fmt.Errorf("no certification completed")
	}
	r.samples["certifications"] = len(traced)
	r.perLayer("sim.block_s", bd.Seconds(), "s")
	r.perLayer("core.generate_s", median(seconds(gens)), "s")
	r.perLayer("core.gen_attempts", float64(gs.Attempts), "count")
	r.perLayer("core.closed_pairs", float64(closed), "count")
	r.perLayer("sim.trials", float64(res.Tally.Trials), "count")
	r.perLayer("sim.screened", float64(res.Screened), "count")
	r.perLayer("sim.residue", float64(res.Tally.Trials-res.Screened), "count")
	r.perLayer("sim.screen_ratio", res.ScreenRate(), "ratio")
	r.perLayer("sim.rounds", float64(len(res.Rounds)), "count")
	r.perLayer("sim.ci_half_width", res.HalfWidth(), "ratio")
	r.perLayer("trace.overhead_ratio", median(seconds(traced))/median(seconds(plain)), "ratio")
	return nil
}

// checkCertify holds whatever the seed: the Wilson half-width reached the
// default target and every witness really loses data.
func (r *run) checkCertify(g *tornado.Graph, res *tornado.CertifyResult) {
	if hw := res.HalfWidth(); !(hw <= sim.DefaultSampledEpsilon) {
		r.violate("certify k=%d: Wilson half-width %.3g above epsilon %.0e", bigK, hw, sim.DefaultSampledEpsilon)
	}
	if res.Screened > res.Tally.Trials || res.Tally.Hits > res.Tally.Trials {
		r.violate("certify k=%d: inconsistent tally %+v screened %d", bigK, res.Tally, res.Screened)
	}
	for _, w := range res.Witnesses {
		if len(w) != bigK || decode.ReferenceRecoverable(g, w) {
			r.violate("certify k=%d: witness of %d nodes is not an unrecoverable pattern", bigK, len(w))
		}
	}
}
