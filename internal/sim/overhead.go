package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// OverheadOptions tunes the reconstruction-overhead measurement — the
// experiment the paper defers to future work (§5.2, §6) and credits to
// Plank's methodology: "a testing system would start with a certain number
// of online nodes and retrieve nodes until the graph can be reconstructed".
type OverheadOptions struct {
	// Trials is the number of random retrieval orders sampled. Default
	// DefaultOverheadTrials.
	Trials int64
	// Workers bounds goroutines; default GOMAXPROCS.
	Workers int
	// Seed drives the sampled retrieval orders.
	Seed uint64
}

func (o OverheadOptions) normalize() OverheadOptions {
	o.Trials = int64Or(o.Trials, DefaultOverheadTrials)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// OverheadResult is the distribution of the minimum number of blocks that
// had to be retrieved, in a uniformly random order, before the data could
// be reconstructed.
type OverheadResult struct {
	GraphName string
	Data      int
	Total     int
	// Counts is a histogram over retrieval counts 0..Total.
	Counts *stats.Histogram
}

// Mean returns the average retrieval count.
func (r OverheadResult) Mean() float64 { return r.Counts.MeanValue() }

// MeanOverhead returns Mean divided by the data block count — the
// "overhead" figure of the LDPC storage literature (1.0 would be an MDS
// code; the paper cites <1.2 for large graphs and measures 1.27–1.29 for
// its 96-node graphs by the 50%-profile method).
func (r OverheadResult) MeanOverhead() float64 { return r.Mean() / float64(r.Data) }

// Quantile returns the retrieval count at the given quantile.
func (r OverheadResult) Quantile(q float64) int { return r.Counts.Quantile(q) }

// OverheadCtx measures g's reconstruction overhead: each trial draws a
// random permutation of the node IDs (the order blocks arrive from
// devices) and binary-searches the shortest prefix that reconstructs all
// data. Cancellation is checked between trials in each worker.
//
// Monotonicity makes the per-trial binary search sound: supersets of a
// decodable block set are decodable.
func OverheadCtx(ctx context.Context, g *graph.Graph, opts OverheadOptions) (OverheadResult, error) {
	opts = opts.normalize()
	res := OverheadResult{
		GraphName: g.Name,
		Data:      g.Data,
		Total:     g.Total,
		Counts:    stats.NewHistogram(g.Total + 1),
	}

	per := opts.Trials / int64(opts.Workers)
	rem := opts.Trials % int64(opts.Workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for w := 0; w < opts.Workers; w++ {
		n := per
		if int64(w) < rem {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(worker int, trials int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(opts.Seed, 0xC0DE<<16|uint64(worker)))
			d := decode.New(g)
			local := stats.NewHistogram(g.Total + 1)
			order := make([]int, g.Total)
			for i := range order {
				order[i] = i
			}
			for t := int64(0); t < trials; t++ {
				if t%1024 == 0 && ctx.Err() != nil {
					return
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				n, ok := minimumPrefix(d, order)
				if !ok {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("sim: full block set not decodable — graph is broken")
					}
					mu.Unlock()
					return
				}
				local.Observe(n)
			}
			mu.Lock()
			for v, c := range local.Counts {
				res.Counts.Counts[v] += c
			}
			res.Counts.Total += local.Total
			mu.Unlock()
		}(w, n)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// minimumPrefix binary-searches the shortest decodable prefix of the
// retrieval order. order must contain every node exactly once.
func minimumPrefix(d *decode.Decoder, order []int) (int, bool) {
	total := len(order)
	decodable := func(n int) bool {
		// Present = order[:n]; erased = order[n:].
		return d.Recoverable(order[n:])
	}
	if !decodable(total) {
		return 0, false
	}
	lo, hi := 0, total // lo: not necessarily decodable; hi: decodable
	for lo < hi {
		mid := (lo + hi) / 2
		if decodable(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, true
}
