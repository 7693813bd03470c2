package sim

import (
	"context"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/stats"
)

// ProfileOptions tunes the reconstruction-failure profile (paper §3: "the
// fraction of failed reconstructions for a large number of test cases").
type ProfileOptions struct {
	// Trials is the Monte Carlo sample count per offline-node count. The
	// paper used 10–34 million per point (962,144,153 cases, 34 CPU-days);
	// the default of DefaultProfileTrials preserves the curve shape on a
	// laptop.
	Trials int64
	// ExhaustiveLimit switches a point to exact enumeration when
	// C(total, k) is at most this bound. Default DefaultExhaustiveLimit.
	ExhaustiveLimit int64
	// MinK and MaxK bound the examined offline counts; MaxK=0 means the
	// whole range up to Total.
	MinK, MaxK int
	// Workers is the number of goroutines; default GOMAXPROCS.
	Workers int
	// Seed drives all sampling; a fixed seed reproduces the profile.
	Seed uint64
}

func (o ProfileOptions) normalize(total int) ProfileOptions {
	o.Trials = int64Or(o.Trials, DefaultProfileTrials)
	o.ExhaustiveLimit = int64Or(o.ExhaustiveLimit, DefaultExhaustiveLimit)
	o.MinK = intOr(o.MinK, 1)
	if o.MaxK <= 0 || o.MaxK > total {
		o.MaxK = total
	}
	o.Workers = defaultWorkers(o.Workers)
	return o
}

// Profile holds the measured failure fraction for each number of offline
// nodes. Entry k answers: with exactly k randomly chosen devices offline,
// what fraction of cases lose data?
type Profile struct {
	GraphName string
	Total     int // nodes in the graph
	Data      int // data nodes
	Fail      []stats.Proportion
	Exact     []bool // Fail[k] computed by full enumeration rather than sampling
}

// FailureProfileCtx measures g's reconstruction-failure profile: exact
// enumeration where C(total, k) is at most opts.ExhaustiveLimit, uniform
// sampling elsewhere. Cancellation is checked at combination-chunk
// boundaries inside each worker.
func FailureProfileCtx(ctx context.Context, g *graph.Graph, opts ProfileOptions) (*Profile, error) {
	opts = opts.normalize(g.Total)
	p := &Profile{
		GraphName: g.Name,
		Total:     g.Total,
		Data:      g.Data,
		Fail:      make([]stats.Proportion, g.Total+1),
		Exact:     make([]bool, g.Total+1),
	}
	// k=0 is trivially exact: nothing missing.
	p.Fail[0] = stats.Proportion{Hits: 0, Trials: 1}
	p.Exact[0] = true

	var samplers []*StratifiedSampler // built on the first sampled point
	for k := opts.MinK; k <= opts.MaxK; k++ {
		if c, ok := combin.BinomialInt64(g.Total, k); ok && c <= opts.ExhaustiveLimit {
			kr, err := ExhaustiveKCtx(ctx, g, k, 1, opts.Workers)
			if err != nil {
				return nil, err
			}
			p.Fail[k] = stats.Proportion{Hits: kr.FailureCount, Trials: kr.Tested}
			p.Exact[k] = true
			continue
		}
		if samplers == nil {
			samplers = newSamplers(decode.NewCSR(g), opts.Workers)
		}
		prop, err := sampleK(ctx, samplers, k, opts)
		if err != nil {
			return nil, err
		}
		p.Fail[k] = prop
	}
	return p, nil
}

// sampleBlockSize is the deterministic unit of sampled profile work:
// trials split into fixed-size blocks with stream = block index. It
// matches the campaign's default profile shard size, so a FailureProfileCtx
// point and a profile campaign over the same seed produce identical
// tallies.
const sampleBlockSize = 65536

// sampleK estimates the failure fraction for exactly k offline nodes by
// uniform random sampling. Work is split into fixed deterministic blocks
// (stream = block index, drawn from the raw opts.Seed) that the samplers
// consume, one per worker, so the tally — an integer sum over blocks — is
// bit-identical at any worker count.
func sampleK(ctx context.Context, samplers []*StratifiedSampler, k int, opts ProfileOptions) (stats.Proportion, error) {
	nBlocks := (opts.Trials + sampleBlockSize - 1) / sampleBlockSize
	props := make([]stats.Proportion, nBlocks)
	errs := make([]error, nBlocks)

	fanBlocks(samplers, 0, nBlocks, func(sp *StratifiedSampler, b int64) {
		n := min(sampleBlockSize, opts.Trials-b*sampleBlockSize)
		blk, err := sp.SampleBlock(ctx, k, n, opts.Seed, uint64(b), 0)
		props[b], errs[b] = blk.Tally(), err
	})
	var agg stats.Proportion
	for b := range props {
		// First error in block order: deterministic propagation.
		if errs[b] != nil {
			return stats.Proportion{}, errs[b]
		}
		agg.Add(props[b].Hits, props[b].Trials)
	}
	return agg, nil
}

// FailFraction returns the measured failure fraction with exactly k nodes
// offline. k >= Total reports 1. An unmeasured point (outside the
// MinK..MaxK window) reports the nearest measured point below it — the
// true curve is nondecreasing in k, so this is a conservative monotone
// extension — or 0 when nothing below was measured.
func (p *Profile) FailFraction(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= p.Total {
		return 1
	}
	for ; k >= 0; k-- {
		if p.Fail[k].Trials > 0 {
			return p.Fail[k].Estimate()
		}
	}
	return 0
}

// FirstObservedFailure returns the smallest offline count whose measured
// failure fraction is nonzero, or 0 when none was observed.
func (p *Profile) FirstObservedFailure() int {
	for k := 1; k <= p.Total; k++ {
		if k < len(p.Fail) && p.Fail[k].Hits > 0 {
			return k
		}
	}
	return 0
}

// AvgNodesToReconstruct returns the expected minimum number of online nodes
// needed for reconstruction — the paper's "average number of nodes capable
// of reconstructing the data" (Tables 1–4). With T the online-count
// threshold, E[T] = Σ_m P(T > m) and P(T > m) is the failure fraction with
// m nodes online, i.e. Total−m offline.
func (p *Profile) AvgNodesToReconstruct() float64 {
	sum := 0.0
	for m := 0; m < p.Total; m++ {
		sum += p.FailFraction(p.Total - m)
	}
	return sum
}

// AvgToReconstructRatio is AvgNodesToReconstruct divided by the data node
// count — the parenthesized ratio the paper prints next to the average
// (e.g. "73.77 (1.53)").
func (p *Profile) AvgToReconstructRatio() float64 {
	if p.Data == 0 {
		return 0
	}
	return p.AvgNodesToReconstruct() / float64(p.Data)
}

// NodesForSuccessProbability returns the minimum number of online nodes
// whose measured reconstruction success probability reaches prob. Table 6
// uses prob = 0.5 ("the minimum number of nodes that provide a 50%
// probability of being able to reconstruct the stripe").
func (p *Profile) NodesForSuccessProbability(prob float64) int {
	for m := 0; m <= p.Total; m++ {
		if 1-p.FailFraction(p.Total-m) >= prob {
			return m
		}
	}
	return p.Total
}

// Overhead returns NodesForSuccessProbability(0.5) divided by the data node
// count — Table 6's overhead column.
func (p *Profile) Overhead() float64 {
	if p.Data == 0 {
		return 0
	}
	return float64(p.NodesForSuccessProbability(0.5)) / float64(p.Data)
}
