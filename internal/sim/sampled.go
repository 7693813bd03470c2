package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// This file implements the archival-scale certification sampler: a
// stratified Monte Carlo estimate of the failure fraction at one erasure
// cardinality, for graphs far beyond the exhaustive rank space
// (C(100000, 5) ≈ 6.9e21). Trials are drawn uniformly; each pattern is
// classified by its erasure structure — the maximum same-check collision
// count — and most patterns are resolved by proof rather than decoding:
//
//   - collision count <= 1: every erased node is the only erasure its
//     checks see, so peeling rule 1 (and rule 2 for erased checks)
//     recovers everything in one step. Provably recoverable, no decode.
//   - otherwise, the rescue certificate: if every erased data node has a
//     present parent check with no other erased member, each is rescued
//     directly. Provably recoverable, no decode.
//
// Only patterns failing both proofs — a small tail at archival scale —
// are decoded, batched 64 at a time through the bit-sliced kernel.
// Because sampling is uniform and strata are tallied after the fact
// (post-stratification), the pooled tally is the plain uniform estimator
// and Wilson intervals apply to it directly.

// Defaults for SampledOptions, following the package option idiom.
const (
	// DefaultSampledEpsilon is the target 95% Wilson CI half-width: the
	// sampler draws rounds of blocks until the pooled interval is at least
	// this tight (~19.2k trials when no failure is observed).
	DefaultSampledEpsilon = 1e-4
	// DefaultSampledMaxTrials caps a sampled certification even when the
	// epsilon target is not reached (a failure-rich graph at a loose
	// epsilon would otherwise run unbounded).
	DefaultSampledMaxTrials = 4 << 20
	// DefaultSampledBlock is the trial count of one deterministic block —
	// the unit of parallelism and of campaign sharding. It matches the
	// campaign's default shard size so a sim-level run and a campaign over
	// the same seed produce identical tallies.
	DefaultSampledBlock = 65536
)

// sampledSeedDomain is XORed into the seed of every sampled
// certification block (SampleStratifiedCtx and sampled campaign shards)
// and not into profile blocks, which draw from the raw seed, so a profile
// and a certification run against one seed never correlate their draws.
const sampledSeedDomain = 0x5ca1ab1e

// SampledOptions tunes SampleStratifiedCtx.
type SampledOptions struct {
	// Epsilon is the planned-precision target: sampling stops at the first
	// round boundary where the pooled 95% Wilson CI half-width is <=
	// Epsilon. Default DefaultSampledEpsilon; negative disables the rule
	// (run to MaxTrials).
	Epsilon float64
	// MaxTrials caps the total trials. Default DefaultSampledMaxTrials.
	MaxTrials int64
	// BlockSize is the trials per deterministic block. Default
	// DefaultSampledBlock.
	BlockSize int64
	// MaxWitnesses caps the failing patterns recorded verbatim (the tally
	// stays exact regardless). Default DefaultMaxFailures.
	MaxWitnesses int
	// Workers is the number of goroutines; default GOMAXPROCS. The result
	// is bit-identical at any worker count.
	Workers int
	// Seed drives all sampling; a fixed seed reproduces the result.
	Seed uint64
}

func (o SampledOptions) normalize() SampledOptions {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultSampledEpsilon
	}
	o.MaxTrials = int64Or(o.MaxTrials, DefaultSampledMaxTrials)
	o.BlockSize = int64Or(o.BlockSize, DefaultSampledBlock)
	o.MaxWitnesses = intOr(o.MaxWitnesses, DefaultMaxFailures)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// SampledRound records the pooled precision after one stopping-rule round.
type SampledRound struct {
	Trials    int64   // cumulative trials after the round
	HalfWidth float64 // pooled 95% Wilson CI half-width at that point
}

// SampledResult is the outcome of a sampled certification at one
// cardinality.
type SampledResult struct {
	K      int
	Tally  stats.Proportion   // pooled failure tally (uniform estimator)
	Strata []stats.Proportion // Strata[s]: trials whose max same-check collision count is s (s capped at K)
	// Screened counts trials resolved by the structural proofs alone —
	// never decoded. The screening rejection rate is Screened/Trials.
	Screened  int64
	Rounds    []SampledRound // precision trajectory, one entry per round
	Witnesses [][]int        // failing patterns (ascending node IDs), capped at MaxWitnesses
}

// Estimate returns the pooled point estimate of the failure fraction.
func (r *SampledResult) Estimate() float64 { return r.Tally.Estimate() }

// Wilson returns the pooled 95% Wilson interval.
func (r *SampledResult) Wilson() (lo, hi float64) { return r.Tally.Wilson(1.96) }

// HalfWidth returns the pooled 95% Wilson CI half-width achieved.
func (r *SampledResult) HalfWidth() float64 { return r.Tally.WilsonHalfWidth(1.96) }

// ScreenRate returns the fraction of trials resolved without decoding.
func (r *SampledResult) ScreenRate() float64 {
	if r.Tally.Trials == 0 {
		return 0
	}
	return float64(r.Screened) / float64(r.Tally.Trials)
}

// SampledPlan lays out the deterministic round schedule for a trial
// budget: blocks of blockSize trials (the last one short), grouped into
// doubling rounds of 1, 2, 4, 8, … blocks. rounds[i] is the half-open block
// range of round i. The schedule is a pure function of (maxTrials,
// blockSize), so the sim driver, the campaign planner, and a resumed
// campaign all agree on where the stopping rule may fire.
func SampledPlan(maxTrials, blockSize int64) (nBlocks int64, rounds [][2]int64) {
	if maxTrials <= 0 || blockSize <= 0 {
		return 0, nil
	}
	nBlocks = (maxTrials + blockSize - 1) / blockSize
	size := int64(1)
	for lo := int64(0); lo < nBlocks; {
		hi := min(lo+size, nBlocks)
		rounds = append(rounds, [2]int64{lo, hi})
		lo = hi
		size *= 2
	}
	return nBlocks, rounds
}

// SampledBlockTrials returns the trial count of block b under the
// SampledPlan(maxTrials, blockSize) schedule — blockSize for every block
// but a short final one. Exported so the campaign planner shards a sampled
// spec into exactly the blocks the sim driver would run.
func SampledBlockTrials(maxTrials, blockSize, b int64) int64 {
	return min(blockSize, maxTrials-b*blockSize)
}

// SampledBlock is the tally of one deterministic sampled block: the unit
// of work of both a SampleStratifiedCtx worker and a sampled campaign
// shard. Fixed (graph, k, trials, seed, stream) always reproduce the same
// block.
type SampledBlock struct {
	Strata    []stats.Proportion // index: max same-check collision count, capped at k
	Screened  int64
	Witnesses [][]int
}

// Tally pools the block's strata.
func (b SampledBlock) Tally() stats.Proportion { return stats.Pool(b.Strata...) }

// StratifiedSampler holds the reusable state of the sampled certification
// hot loop: the bit-sliced kernel, the epoch-stamped collision counters,
// and the 64-lane pattern staging buffers. One sampler serves one
// goroutine; after warm-up, SampleBlock's trial loop performs no
// steady-state allocations (witness recording aside).
type StratifiedSampler struct {
	c  *decode.CSR
	sk *decode.SlicedKernel

	count []int32 // count[r]: erased members of check r (+1 if r erased), valid when stamp[r] == epoch
	stamp []int32
	epoch int32

	idx     []int // current k-subset, ascending
	scratch map[int]bool

	batch     []int32 // staged patterns, lane-major: batch[lane*k : lane*k+k]
	batchLen  int     // staged lane count
	pendStrat []int32 // stratum of each staged lane
}

// NewStratifiedSampler returns a sampler over c. The CSR may be shared
// read-only across samplers.
func NewStratifiedSampler(c *decode.CSR) *StratifiedSampler {
	return &StratifiedSampler{
		c:         c,
		sk:        decode.NewSlicedKernel(c),
		count:     make([]int32, c.Total),
		stamp:     make([]int32, c.Total),
		scratch:   make(map[int]bool, 8),
		pendStrat: make([]int32, decode.Lanes),
	}
}

// SampleBlock draws trials uniformly random k-subsets from the
// deterministic PCG stream (seed, k<<32|stream) and returns the stratified
// tally. It is the unit of work of every uniform sampler in the system:
// FailureProfileCtx points and profile campaign shards pass their raw
// seed, sampled certification passes seed^sampledSeedDomain. Fixed
// arguments always reproduce the same block, so a resumed campaign is
// bit-identical to an uninterrupted one. Cancellation is honored at
// combination-chunk boundaries.
func (s *StratifiedSampler) SampleBlock(ctx context.Context, k int, trials int64, seed, stream uint64, maxWitnesses int) (SampledBlock, error) {
	total := int(s.c.Total)
	if k < 1 || k > total {
		return SampledBlock{}, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, total)
	}
	reg := Metrics()
	mcTrials := reg.Counter(MetricMCTrials)
	mcFails := reg.Counter(MetricMCFailures)

	if cap(s.idx) < k {
		s.idx = make([]int, k)
		s.batch = make([]int32, decode.Lanes*k)
	}
	s.idx = s.idx[:k]
	s.batchLen = 0

	rng := rand.New(rand.NewPCG(seed, uint64(k)<<32|stream))
	blk := SampledBlock{Strata: make([]stats.Proportion, k+1)}
	var done, hits, lastFlushTrials, lastFlushHits int64
	flushHits := func() {
		// Kernel batches settle lagging trials; recompute hits from strata.
		hits = 0
		for _, p := range blk.Strata {
			hits += p.Hits
		}
	}
	for i := int64(0); i < trials; i++ {
		if i%cancelCheckInterval == 0 {
			if ctx.Err() != nil {
				return SampledBlock{}, ctx.Err()
			}
			flushHits()
			mcTrials.Add(done - lastFlushTrials)
			mcFails.Add(hits - lastFlushHits)
			lastFlushTrials, lastFlushHits = done, hits
		}
		combin.RandomSubset(s.idx, total, rng, s.scratch)
		strat, certified := s.classify(k)
		if certified {
			blk.Strata[strat].Add(0, 1)
			blk.Screened++
			done++
			continue
		}
		lane := s.batchLen
		dst := s.batch[lane*k : lane*k+k]
		for j, v := range s.idx {
			dst[j] = int32(v)
		}
		s.pendStrat[lane] = int32(strat)
		s.batchLen++
		if s.batchLen == decode.Lanes {
			s.flushBatch(&blk, k, maxWitnesses)
			done += decode.Lanes
		}
	}
	s.flushBatch(&blk, k, maxWitnesses)
	flushHits()
	mcTrials.Add(trials - lastFlushTrials)
	mcFails.Add(hits - lastFlushHits)
	return blk, nil
}

// classify stamps the collision counters for the current k-subset and
// returns its stratum (the maximum same-check collision count, capped at
// k) plus whether one of the structural recoverability proofs applies.
func (s *StratifiedSampler) classify(k int) (strat int, certified bool) {
	s.epoch++
	epoch := s.epoch
	data := int(s.c.Data)
	maxC := int32(0)
	for _, v := range s.idx {
		for _, r := range s.c.Parents(int32(v)) {
			c := s.bump(r, epoch)
			if c > maxC {
				maxC = c
			}
		}
		if v >= data {
			c := s.bump(int32(v), epoch)
			if c > maxC {
				maxC = c
			}
		}
	}
	if maxC <= 1 {
		// Every erased node is the sole erasure its checks see: rule 1
		// rescues each erased data node directly, rule 2 recomputes each
		// erased check from its fully present members.
		return 1, true
	}
	strat = int(maxC)
	if strat > k {
		strat = k
	}
	// Rescue certificate: every erased data node has a parent check with
	// collision count exactly 1 — that check is present (an erased check
	// would count itself too) and sees no other erasure, so it rescues the
	// node directly regardless of peel order. idx is ascending, so data
	// nodes come first.
	for _, v := range s.idx {
		if v >= data {
			break
		}
		rescued := false
		for _, r := range s.c.Parents(int32(v)) {
			if s.count[r] == 1 {
				rescued = true
				break
			}
		}
		if !rescued {
			return strat, false
		}
	}
	return strat, true
}

// bump increments the epoch-stamped collision counter of check r.
func (s *StratifiedSampler) bump(r int32, epoch int32) int32 {
	if s.stamp[r] != epoch {
		s.stamp[r] = epoch
		s.count[r] = 1
	} else {
		s.count[r]++
	}
	return s.count[r]
}

// flushBatch decodes the staged lanes through the bit-sliced kernel and
// tallies each into its stratum.
func (s *StratifiedSampler) flushBatch(blk *SampledBlock, k, maxWitnesses int) {
	n := s.batchLen
	if n == 0 {
		return
	}
	s.sk.Reset()
	active := ^uint64(0)
	if n < decode.Lanes {
		active = (uint64(1) << n) - 1
	}
	s.sk.SetActive(active)
	for lane := 0; lane < n; lane++ {
		for _, v := range s.batch[lane*k : lane*k+k] {
			s.sk.Erase(int(v), uint64(1)<<lane)
		}
	}
	recovered := s.sk.Eval()
	for lane := 0; lane < n; lane++ {
		var hit int64
		if recovered&(uint64(1)<<lane) == 0 {
			hit = 1
			if len(blk.Witnesses) < maxWitnesses {
				w := make([]int, k)
				for i, v := range s.batch[lane*k : lane*k+k] {
					w[i] = int(v)
				}
				blk.Witnesses = append(blk.Witnesses, w)
			}
		}
		blk.Strata[s.pendStrat[lane]].Add(hit, 1)
	}
	s.batchLen = 0
}

// SampleStratifiedCtx runs the sampled certification of cardinality k:
// deterministic blocks executed in doubling rounds, stopping at the first
// round boundary where the pooled 95% Wilson CI half-width reaches
// opts.Epsilon (or when opts.MaxTrials is exhausted). The result is
// bit-identical for a fixed seed at any worker count: blocks are fixed
// RNG streams, tallies are integer sums, witnesses merge in block order,
// and the stopping rule is evaluated only at round boundaries of the
// fixed SampledPlan schedule.
func SampleStratifiedCtx(ctx context.Context, g *graph.Graph, k int, opts SampledOptions) (*SampledResult, error) {
	if k < 1 || k > g.Total {
		return nil, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, g.Total)
	}
	opts = opts.normalize()
	c := decode.NewCSR(g)

	nBlocks, rounds := SampledPlan(opts.MaxTrials, opts.BlockSize)
	res := &SampledResult{K: k, Strata: make([]stats.Proportion, k+1)}

	samplers := newSamplers(c, int(min(int64(opts.Workers), nBlocks)))
	blocks := make([]SampledBlock, nBlocks)
	errs := make([]error, nBlocks)
	for _, rd := range rounds {
		fanBlocks(samplers, rd[0], rd[1], func(sp *StratifiedSampler, b int64) {
			n := SampledBlockTrials(opts.MaxTrials, opts.BlockSize, b)
			blocks[b], errs[b] = sp.SampleBlock(ctx, k, n, opts.Seed^sampledSeedDomain, uint64(b), opts.MaxWitnesses)
		})
		// First error in block order, so cancellation reports are
		// deterministic too.
		for b := rd[0]; b < rd[1]; b++ {
			if errs[b] != nil {
				return nil, errs[b]
			}
		}
		for b := rd[0]; b < rd[1]; b++ {
			mergeSampledBlock(res, blocks[b], opts.MaxWitnesses)
		}
		res.Rounds = append(res.Rounds, SampledRound{Trials: res.Tally.Trials, HalfWidth: res.HalfWidth()})
		if opts.Epsilon > 0 && res.HalfWidth() <= opts.Epsilon {
			break
		}
	}
	return res, nil
}

// mergeSampledBlock folds one block into the running result.
func mergeSampledBlock(res *SampledResult, blk SampledBlock, maxWitnesses int) {
	for s, p := range blk.Strata {
		res.Strata[s].Add(p.Hits, p.Trials)
	}
	res.Screened += blk.Screened
	for _, w := range blk.Witnesses {
		if len(res.Witnesses) >= maxWitnesses {
			break
		}
		res.Witnesses = append(res.Witnesses, slices.Clone(w))
	}
	res.Tally = stats.Pool(res.Strata...)
}

// newSamplers returns n samplers sharing the read-only CSR c, one per
// worker goroutine.
func newSamplers(c *decode.CSR, n int) []*StratifiedSampler {
	samplers := make([]*StratifiedSampler, n)
	for i := range samplers {
		samplers[i] = NewStratifiedSampler(c)
	}
	return samplers
}

// fanBlocks runs fn for every block index in [lo, hi), spread over one
// goroutine per sampler (at most hi-lo of them), and returns when all are
// done. fn writes its result into a per-block slot, so the outcome does
// not depend on which sampler ran which block.
func fanBlocks(samplers []*StratifiedSampler, lo, hi int64, fn func(sp *StratifiedSampler, b int64)) {
	ch := make(chan int64)
	var wg sync.WaitGroup
	for _, sp := range samplers[:min(int64(len(samplers)), hi-lo)] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range ch {
				fn(sp, b)
			}
		}()
	}
	for b := lo; b < hi; b++ {
		ch <- b
	}
	close(ch)
	wg.Wait()
}
