// Package sim implements the paper's automated testing system (§3): the
// exhaustive combinatorial worst-case search that finds the minimum number
// of lost nodes causing data loss, and the Monte Carlo reconstruction-
// failure profiles that estimate the fraction of failed reconstructions for
// each number of offline devices. Both fan out over goroutines; each worker
// owns a private decoder and enumerates a contiguous rank range of the
// combination space.
//
// Every long-running entry point takes a context first (WorstCaseCtx,
// FailureProfileCtx, SampleStratifiedCtx, OverheadCtx, SimulateLifetimeCtx);
// workers check cancellation at combination-chunk boundaries.
package sim

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"tornado/internal/combin"
	"tornado/internal/graph"
)

// WorstCaseOptions tunes the exhaustive search.
type WorstCaseOptions struct {
	// MaxK is the largest erasure cardinality examined (the paper searched
	// (96 choose 1) through (96 choose 6)). Default DefaultMaxK.
	MaxK int
	// MaxFailures caps how many failing sets are recorded verbatim (the
	// total count is always exact). Default DefaultMaxFailures.
	MaxFailures int
	// Workers is the number of goroutines; default GOMAXPROCS.
	Workers int
	// KeepGoing examines all cardinalities up to MaxK even after a failing
	// one is found (the default stops at the first failing cardinality,
	// which defines the worst case).
	KeepGoing bool
}

func (o WorstCaseOptions) normalize() WorstCaseOptions {
	o.MaxK = intOr(o.MaxK, DefaultMaxK)
	o.MaxFailures = intOr(o.MaxFailures, DefaultMaxFailures)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// KResult reports the exhaustive examination of one erasure cardinality.
type KResult struct {
	K            int
	Tested       int64   // combinations examined (= C(total, k))
	FailureCount int64   // combinations that lost data
	Failures     [][]int // the lexicographically smallest failing sets, up to MaxFailures (worker-count independent)
}

// WorstCaseResult summarizes a search.
type WorstCaseResult struct {
	// FirstFailure is the smallest cardinality that lost data — the
	// paper's headline fault-tolerance metric ("first failure"). Zero when
	// no failure was found up to MaxK.
	FirstFailure int
	Found        bool
	PerK         []KResult // one entry per examined cardinality, ascending
	Tested       int64     // total combinations examined
}

// FailureCountAt returns the exact failure count recorded for cardinality
// k, or 0 when k was not examined.
func (r WorstCaseResult) FailureCountAt(k int) int64 {
	for _, kr := range r.PerK {
		if kr.K == k {
			return kr.FailureCount
		}
	}
	return 0
}

// WorstCaseCtx exhaustively searches erasure combinations of increasing
// cardinality for the graph's worst-case failure scenario (paper §3:
// "(96 choose 1 lost block) through (96 choose 6)"). Workers observe ctx
// at combination-chunk boundaries, so cancellation returns (with the
// cardinalities completed so far and ctx.Err()) within one chunk of
// decoding work.
func WorstCaseCtx(ctx context.Context, g *graph.Graph, opts WorstCaseOptions) (WorstCaseResult, error) {
	opts = opts.normalize()
	var res WorstCaseResult
	for k := 1; k <= opts.MaxK; k++ {
		kr, err := ExhaustiveKCtx(ctx, g, k, opts.MaxFailures, opts.Workers)
		if err != nil {
			return res, err
		}
		res.PerK = append(res.PerK, kr)
		res.Tested += kr.Tested
		if kr.FailureCount > 0 && !res.Found {
			res.Found = true
			res.FirstFailure = k
			if !opts.KeepGoing {
				break
			}
		}
	}
	return res, nil
}

// ExhaustiveKCtx examines every erasure combination of exactly k of the
// graph's nodes, returning the exact failure count and up to maxFailures
// recorded failing sets. The rank space is split across workers, each
// running ScanRangeCtx over its range; the result is bit-identical at any
// worker count. Cancellation is checked every cancelCheckInterval
// combinations per worker.
func ExhaustiveKCtx(ctx context.Context, g *graph.Graph, k, maxFailures, workers int) (KResult, error) {
	if k < 1 || k > g.Total {
		return KResult{}, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, g.Total)
	}
	total, ok := combin.BinomialInt64(g.Total, k)
	if !ok {
		return KResult{}, fmt.Errorf("sim: C(%d,%d) exceeds the exhaustive rank space (%w); use the sampled certification spec for archival-scale graphs", g.Total, k, combin.ErrRankOverflow)
	}
	workers = defaultWorkers(workers)
	ranges := combin.SplitRanges(total, workers)

	rrs := make([]RangeResult, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, rg := range ranges {
		wg.Add(1)
		go func(i int, lo, hi int64) {
			defer wg.Done()
			rrs[i], errs[i] = ScanRangeCtx(ctx, g, k, lo, hi, maxFailures)
		}(i, rg[0], rg[1])
	}
	wg.Wait()
	// Propagate the first worker error in range order — a range validation
	// failure must not be silently reported as a clean scan.
	for _, err := range errs {
		if err != nil {
			return KResult{}, err
		}
	}

	var count int64
	var failures [][]int
	for _, rr := range rrs {
		count += rr.FailureCount
		failures = append(failures, rr.Failures...)
	}
	// Each range keeps its lexicographically smallest failures (up to
	// maxFailures), so their union contains the global lex-smallest
	// maxFailures: sorting then truncating yields a canonical prefix that
	// is independent of the worker count and range tiling.
	failures = mergeFailures(failures, maxFailures)
	return KResult{K: k, Tested: total, FailureCount: count, Failures: failures}, nil
}

// mergeFailures canonicalizes recorded failing sets from range scans whose
// per-range lists are each lex-smallest-capped: sort lexicographically,
// then truncate to the maxFailures prefix.
func mergeFailures(failures [][]int, maxFailures int) [][]int {
	slices.SortFunc(failures, slices.Compare)
	if len(failures) > maxFailures {
		failures = failures[:maxFailures:maxFailures]
	}
	return failures
}

// RangeResult reports an exhaustive scan of one contiguous rank range — the
// unit of work of both an ExhaustiveKCtx worker and a campaign shard.
type RangeResult struct {
	Tested       int64   // combinations examined (= hi - lo)
	FailureCount int64   // combinations that lost data
	Failures     [][]int // the lexicographically smallest failing sets of the range, up to maxFailures, ascending
}

// ScanRangeCtx examines every erasure combination of cardinality k whose
// revolving-door rank (combin.GrayRank) lies in [lo, hi), single-threaded,
// recording the range's lexicographically smallest failing sets (up to
// maxFailures). It is the system's decode hot path: the bit-sliced scan of
// sliced.go evaluates 64 patterns per word and proves most of them
// recoverable by certificate without peeling (see DESIGN.md "Decoder
// kernels").
//
// ScanRangeCtx is deterministic in its arguments, which is what makes
// campaign shards resumable: re-scanning the same range always reproduces
// the same result, and ranges tiling [0, C(total,k)) together examine every
// combination exactly once. Cancellation is honored at combination-chunk
// boundaries, and progress counters are flushed to Metrics() at the same
// cadence.
func ScanRangeCtx(ctx context.Context, g *graph.Graph, k int, lo, hi int64, maxFailures int) (RangeResult, error) {
	return scanRangeSliced(ctx, g, k, lo, hi, maxFailures, nil)
}

// recordFailure maintains fs as the lexicographically smallest failing sets
// seen so far, ascending, capped at maxFailures. Keeping the lex-smallest
// (rather than the first maxFailures in revolving-door scan order) makes
// the recorded sets a pure function of the range — merging any tiling of
// [0, C(total,k)) reproduces the same global prefix regardless of worker
// count or shard schedule.
func recordFailure(fs [][]int, idx []int, maxFailures int) [][]int {
	pos, _ := slices.BinarySearchFunc(fs, idx, slices.Compare)
	if pos >= maxFailures {
		return fs
	}
	fs = slices.Insert(fs, pos, slices.Clone(idx))
	return fs[:min(len(fs), maxFailures)]
}
