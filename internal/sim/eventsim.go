package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"tornado/internal/decode"
	"tornado/internal/graph"
)

// LifetimeOptions tunes the discrete-event lifetime simulation.
type LifetimeOptions struct {
	// Lambda is the per-device failure rate (per year).
	Lambda float64
	// Mu is the per-repairman rebuild rate (per year); a rebuild restores
	// one failed device completely.
	Mu float64
	// Repairmen bounds concurrent rebuilds; 0 disables repair.
	Repairmen int
	// Runs is the number of independent system lifetimes simulated.
	Runs int
	// MaxYears truncates runs that never lose data (their lifetime counts
	// as MaxYears, biasing the estimate low — keep it far above the
	// expected MTTDL or treat the result as a lower bound). Default 1e6.
	MaxYears float64
	// Seed drives all sampling.
	Seed uint64
	// Workers bounds goroutines.
	Workers int
}

func (o LifetimeOptions) normalize() LifetimeOptions {
	o.Runs = intOr(o.Runs, DefaultLifetimeRuns)
	o.MaxYears = floatOr(o.MaxYears, DefaultLifetimeMaxYears)
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// LifetimeResult summarizes simulated times to data loss.
type LifetimeResult struct {
	Runs      int
	Truncated int // runs that hit MaxYears without losing data
	MeanYears float64
}

// SimulateLifetimeCtx is the ground-truth counterpart of the Markov MTTDL
// model (reliability.MTTDL): a discrete-event simulation of the actual
// graph under exponential per-device failures and a bounded repair crew.
// Unlike the Markov chain — which collapses the failed-device identities
// into a count and the measured profile — the event simulation tracks
// exactly which devices are down and asks the real decoder whether data
// survived, so it validates both the chain and the profile at once.
// Cancellation is checked between runs in each worker.
func SimulateLifetimeCtx(ctx context.Context, g *graph.Graph, opts LifetimeOptions) (LifetimeResult, error) {
	opts = opts.normalize()
	if opts.Lambda <= 0 {
		return LifetimeResult{}, fmt.Errorf("sim: lambda must be positive")
	}
	if opts.Mu < 0 || opts.Repairmen < 0 {
		return LifetimeResult{}, fmt.Errorf("sim: negative repair parameters")
	}

	per := opts.Runs / opts.Workers
	rem := opts.Runs % opts.Workers
	var mu sync.Mutex
	res := LifetimeResult{Runs: opts.Runs}
	total := 0.0
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		n := per
		if w < rem {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(worker, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(opts.Seed, 0x11FE<<16|uint64(worker)))
			d := decode.New(g)
			localTotal := 0.0
			localTrunc := 0
			for i := 0; i < n; i++ {
				if ctx.Err() != nil {
					return
				}
				t, truncated := oneLifetime(g, d, opts, rng)
				localTotal += t
				if truncated {
					localTrunc++
				}
			}
			mu.Lock()
			total += localTotal
			res.Truncated += localTrunc
			mu.Unlock()
		}(w, n)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.MeanYears = total / float64(opts.Runs)
	return res, nil
}

// oneLifetime runs a single system lifetime: exponential failure clocks on
// live devices, exponential rebuild clocks on up to Repairmen failed
// devices, stepping event by event until the surviving set cannot
// reconstruct the data.
func oneLifetime(g *graph.Graph, d *decode.Decoder, opts LifetimeOptions, rng *rand.Rand) (float64, bool) {
	failed := make([]int, 0, g.Total)
	now := 0.0
	for now < opts.MaxYears {
		up := g.Total - len(failed)
		failRate := float64(up) * opts.Lambda
		repairRate := float64(min(len(failed), opts.Repairmen)) * opts.Mu
		totalRate := failRate + repairRate
		if totalRate <= 0 {
			return opts.MaxYears, true // nothing can happen
		}
		now += expRand(rng, totalRate)
		if now >= opts.MaxYears {
			return opts.MaxYears, true
		}
		if rng.Float64()*totalRate < failRate {
			// A uniformly random live device fails.
			v := randomLive(g.Total, failed, rng)
			failed = append(failed, v)
			if !d.Recoverable(failed) {
				return now, false
			}
		} else {
			// A uniformly random under-repair device comes back.
			i := rng.IntN(min(len(failed), opts.Repairmen))
			failed[i] = failed[len(failed)-1]
			failed = failed[:len(failed)-1]
		}
	}
	return opts.MaxYears, true
}

// expRand draws an exponential variate with the given rate.
func expRand(rng *rand.Rand, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// randomLive picks a uniformly random device not in failed.
func randomLive(total int, failed []int, rng *rand.Rand) int {
	for {
		v := rng.IntN(total)
		live := true
		for _, f := range failed {
			if f == v {
				live = false
				break
			}
		}
		if live {
			return v
		}
	}
}
