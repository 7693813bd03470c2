// Package campaign turns the paper's hours-to-days testing workloads — the
// exhaustive combinatorial worst-case searches and Monte Carlo
// reconstruction-failure profiles of §3 — into durable, resumable units of
// work. A campaign spec (graph + options) is deterministically sharded:
// exhaustive cardinalities are cut into contiguous combination-rank ranges
// via combin.SplitRanges (scanned in revolving-door order by the bit-sliced
// scan; see sim.ScanRangeCtx), and Monte Carlo points into fixed-size trial
// blocks each owning a seeded RNG stream (see sim.StratifiedSampler). A
// worker pool executes shards and journals each completed shard to a
// crash-safe JSONL file, so Resume skips finished shards and — because
// every shard is a pure function of its plan entry — produces results
// bit-identical to an uninterrupted run.
//
// A content-addressed result cache keyed by graph.Fingerprint plus the
// normalized spec makes re-running an unchanged graph free: only rewired
// graphs (different fingerprint) pay for a new search, which is exactly the
// access pattern of adjust.Improve-style feedback loops.
//
// Progress is exported through internal/obs (shards done/total,
// combinations/sec, ETA) and, per completed shard, an optional callback.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
	"tornado/internal/graphml"
	"tornado/internal/obs"
	"tornado/internal/sim"
	"tornado/internal/stats"
)

// Kind selects the workload a campaign runs.
type Kind string

const (
	// KindWorstCase is the exhaustive first-failure search
	// (sim.WorstCaseCtx).
	KindWorstCase Kind = "worstcase"
	// KindProfile is the Monte Carlo reconstruction-failure profile
	// (sim.FailureProfileCtx).
	KindProfile Kind = "profile"
	// KindSampled is the archival-scale sampled certification
	// (sim.SampleStratifiedCtx): stratified Monte Carlo with a Wilson-CI
	// planned-precision stopping rule, for graphs whose erasure spaces
	// overflow the exhaustive rank arithmetic entirely.
	KindSampled Kind = "sampled"
)

// DefaultShardSize is the target number of combinations (or Monte Carlo
// trials) per shard. Shards are the unit of checkpointing: small enough
// that a crash loses little work, large enough that journal writes are
// noise against decoding cost.
const DefaultShardSize = 65536

// Spec is the canonical description of a campaign's workload. Zero fields
// are filled with the internal/sim defaults; the normalized form is what is
// stored in the manifest and hashed (with the graph fingerprint) into the
// result cache key, so field order and zeroing discipline here define cache
// identity.
type Spec struct {
	Kind Kind `json:"kind"`

	// MaxK bounds the examined erasure cardinality (both kinds).
	MaxK int `json:"max_k,omitempty"`

	// Worst-case search fields (KindWorstCase).
	MaxFailures int  `json:"max_failures,omitempty"`
	KeepGoing   bool `json:"keep_going,omitempty"`

	// Monte Carlo fields (KindProfile and KindSampled). For KindSampled,
	// Trials is the per-cardinality trial budget the stopping rule may cut
	// short, and MaxFailures doubles as the witness cap.
	Trials          int64  `json:"trials,omitempty"`
	ExhaustiveLimit int64  `json:"exhaustive_limit,omitempty"`
	MinK            int    `json:"min_k,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`

	// Epsilon is the sampled certification's planned-precision target
	// (KindSampled): sampling of a cardinality stops at the first round
	// boundary where the pooled 95% Wilson CI half-width is <= Epsilon.
	// Negative disables the rule (the full Trials budget runs).
	Epsilon float64 `json:"epsilon,omitempty"`

	// ShardSize overrides DefaultShardSize. For KindSampled it is the
	// sampled block size: shard boundaries define the RNG streams, so it
	// participates in the computed result, not just the checkpoint layout.
	ShardSize int64 `json:"shard_size,omitempty"`
}

// normalize fills defaults and zeroes the fields the kind does not use, so
// that equivalent specs are byte-identical after marshaling.
func (s Spec) normalize(total int) Spec {
	if s.ShardSize <= 0 {
		s.ShardSize = DefaultShardSize
	}
	switch s.Kind {
	case KindWorstCase:
		if s.MaxK <= 0 {
			s.MaxK = sim.DefaultMaxK
		}
		if s.MaxK > total {
			s.MaxK = total
		}
		if s.MaxFailures <= 0 {
			s.MaxFailures = sim.DefaultMaxFailures
		}
		s.Trials, s.ExhaustiveLimit, s.MinK, s.Seed = 0, 0, 0, 0
		s.Epsilon = 0
	case KindProfile:
		if s.Trials <= 0 {
			s.Trials = sim.DefaultProfileTrials
		}
		if s.ExhaustiveLimit <= 0 {
			s.ExhaustiveLimit = sim.DefaultExhaustiveLimit
		}
		if s.MinK <= 0 {
			s.MinK = 1
		}
		if s.MaxK <= 0 || s.MaxK > total {
			s.MaxK = total
		}
		s.MaxFailures, s.KeepGoing = 0, false
		s.Epsilon = 0
	case KindSampled:
		if s.Trials <= 0 {
			s.Trials = sim.DefaultSampledMaxTrials
		}
		if s.Epsilon == 0 {
			s.Epsilon = sim.DefaultSampledEpsilon
		}
		if s.MinK <= 0 {
			s.MinK = 1
		}
		if s.MaxK <= 0 {
			s.MaxK = sim.DefaultMaxK
		}
		if s.MaxK > total {
			s.MaxK = total
		}
		if s.MaxFailures <= 0 {
			s.MaxFailures = sim.DefaultMaxFailures
		}
		s.ExhaustiveLimit, s.KeepGoing = 0, false
	}
	return s
}

func (s Spec) validate() error {
	switch s.Kind {
	case KindWorstCase, KindProfile, KindSampled:
	default:
		return fmt.Errorf("campaign: unknown kind %q (want %q, %q, or %q)", s.Kind, KindWorstCase, KindProfile, KindSampled)
	}
	return nil
}

// Options tunes campaign execution. Unlike Spec, nothing here affects the
// computed result — workers, metrics, and cache location can change between
// a run and its resume.
type Options struct {
	// Workers is the worker pool size; default GOMAXPROCS.
	Workers int
	// CacheDir enables the content-addressed result cache. Empty disables
	// caching.
	CacheDir string
	// Metrics receives the campaign progress gauges; default sim.Metrics(),
	// so one registry carries both the sim counters and the campaign
	// gauges.
	Metrics *obs.Registry
	// Progress, when set, is called after every completed shard with a
	// status snapshot. Called from worker goroutines, serialized.
	Progress func(Status)
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Metrics == nil {
		o.Metrics = sim.Metrics()
	}
	return o
}

// Campaign progress gauges, published to Options.Metrics.
const (
	MetricShardsTotal = "campaign_shards_total"
	MetricShardsDone  = "campaign_shards_done"
	MetricWorkPerSec  = "campaign_combinations_per_sec"
	MetricETASeconds  = "campaign_eta_seconds"
)

// Result is the outcome of a campaign: exactly one of WorstCase, Profile,
// or Sampled is set, matching Kind.
type Result struct {
	Kind        Kind                 `json:"kind"`
	Fingerprint string               `json:"fingerprint"`
	Spec        Spec                 `json:"spec"`
	WorstCase   *sim.WorstCaseResult `json:"worst_case,omitempty"`
	Profile     *sim.Profile         `json:"profile,omitempty"`
	// Sampled holds one sampled certification per cardinality in
	// MinK..MaxK, in ascending K order (KindSampled).
	Sampled []*sim.SampledResult `json:"sampled,omitempty"`
	// WorkDone counts combinations plus trials evaluated across all shards
	// that contributed to the result (journaled ones included).
	WorkDone int64 `json:"work_done"`
	// Cached reports that the result was served from the result cache (or
	// a completed campaign directory) without executing any shard. Not
	// stored.
	Cached bool `json:"-"`
}

// Status is a progress snapshot of a campaign directory.
type Status struct {
	Dir         string
	Kind        Kind
	Fingerprint string
	TotalShards int
	DoneShards  int
	WorkTotal   int64 // combinations + trials across all planned shards
	WorkDone    int64
	Completed   bool // result.json present
}

// shard is one deterministic unit of work. Exhaustive shards scan the
// combination-rank range [Lo, Hi) of cardinality K; Monte Carlo shards
// (Trials > 0) draw Trials samples from RNG stream (spec.Seed, K, Stream).
type shard struct {
	ID          int
	K           int
	Lo, Hi      int64
	MaxFailures int
	Trials      int64
	Stream      uint64
	Exact       bool // profile point computed by enumeration, not sampling
}

func (s shard) work() int64 {
	if s.Trials > 0 {
		return s.Trials
	}
	return s.Hi - s.Lo
}

// maxPlannedShards bounds the shard list an exhaustive plan may expand to.
// An archival-scale cardinality whose rank space still fits int64 (e.g.
// C(100000, 4) ≈ 4.2e18) would otherwise ask for trillions of shard
// structs; like a true rank overflow, that means exhaustive enumeration is
// infeasible and the spec should be sampled instead.
const maxPlannedShards = 1 << 20

// planShards deterministically expands a normalized spec into shard groups.
// Worst-case campaigns get one group per cardinality (executed in order so
// the first-failure early stop matches sim.WorstCaseCtx); profile campaigns
// get a single group because every point is independent; sampled campaigns
// get one group per (cardinality, stopping-rule round) so the runner can
// evaluate the precision target exactly where sim.SampleStratifiedCtx
// would.
func planShards(g *graph.Graph, spec Spec) ([][]shard, error) {
	nextID := 0
	rankShards := func(k int, maxFailures int, exact bool) ([]shard, error) {
		total, ok := combin.BinomialInt64(g.Total, k)
		if !ok {
			return nil, fmt.Errorf("campaign: C(%d,%d) exceeds the exhaustive rank space (%w); lower MaxK or switch to Kind \"sampled\"", g.Total, k, combin.ErrRankOverflow)
		}
		parts := (total + spec.ShardSize - 1) / spec.ShardSize
		if parts > maxPlannedShards {
			return nil, fmt.Errorf("campaign: C(%d,%d) = %d needs %d shards of %d, beyond the exhaustive planning budget (%w); lower MaxK or switch to Kind \"sampled\"",
				g.Total, k, total, parts, spec.ShardSize, combin.ErrRankOverflow)
		}
		var out []shard
		for _, rg := range combin.SplitRanges(total, int(parts)) {
			out = append(out, shard{ID: nextID, K: k, Lo: rg[0], Hi: rg[1], MaxFailures: maxFailures, Exact: exact})
			nextID++
		}
		return out, nil
	}

	switch spec.Kind {
	case KindWorstCase:
		var groups [][]shard
		for k := 1; k <= spec.MaxK; k++ {
			grp, err := rankShards(k, spec.MaxFailures, true)
			if err != nil {
				return nil, err
			}
			groups = append(groups, grp)
		}
		return groups, nil

	case KindProfile:
		var grp []shard
		for k := spec.MinK; k <= spec.MaxK; k++ {
			if c, ok := combin.BinomialInt64(g.Total, k); ok && c <= spec.ExhaustiveLimit {
				// Exact enumeration; only the count matters, record one
				// witness at most (mirrors sim.FailureProfileCtx).
				ss, err := rankShards(k, 1, true)
				if err != nil {
					return nil, err
				}
				grp = append(grp, ss...)
				continue
			}
			parts := (spec.Trials + spec.ShardSize - 1) / spec.ShardSize
			for i, rg := range combin.SplitRanges(spec.Trials, int(parts)) {
				grp = append(grp, shard{ID: nextID, K: k, Trials: rg[1] - rg[0], Stream: uint64(i)})
				nextID++
			}
		}
		return [][]shard{grp}, nil

	case KindSampled:
		// One block per shard, blocks grouped into the doubling rounds of
		// sim.SampledPlan. The stream is the block index within the
		// cardinality's schedule, so every shard is the exact block a
		// sim-level SampleStratifiedCtx run would draw.
		var groups [][]shard
		for k := spec.MinK; k <= spec.MaxK; k++ {
			_, rounds := sim.SampledPlan(spec.Trials, spec.ShardSize)
			for _, rd := range rounds {
				var grp []shard
				for b := rd[0]; b < rd[1]; b++ {
					grp = append(grp, shard{
						ID:          nextID,
						K:           k,
						Trials:      sim.SampledBlockTrials(spec.Trials, spec.ShardSize, b),
						Stream:      uint64(b),
						MaxFailures: spec.MaxFailures,
					})
					nextID++
				}
				groups = append(groups, grp)
			}
		}
		return groups, nil
	}
	return nil, spec.validate()
}

// matches reports whether a journaled record is the complete result of
// shard s; anything else (stale plan, truncated write that still parsed) is
// discarded and the shard reruns.
func (s shard) matches(rec Record) bool {
	if rec.K != s.K {
		return false
	}
	if s.Trials > 0 {
		return rec.Trials == s.Trials
	}
	return rec.Tested == s.Hi-s.Lo
}

// Run executes a campaign to completion in dir. See RunCtx.
func Run(dir string, g *graph.Graph, spec Spec, opts Options) (*Result, error) {
	return RunCtx(context.Background(), dir, g, spec, opts)
}

// RunCtx starts a fresh campaign in dir and executes it to completion. The
// directory must not already hold a campaign (use ResumeCtx for that). If
// opts.CacheDir holds a result for the same graph fingerprint and
// normalized spec, it is returned immediately with Cached set and the
// directory is left untouched. On cancellation the journal retains every
// completed shard and RunCtx returns ctx's error; ResumeCtx picks up from
// there.
func RunCtx(ctx context.Context, dir string, g *graph.Graph, spec Spec, opts Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("campaign: nil graph")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec = spec.normalize(g.Total)
	opts = opts.normalize()
	fp := g.Fingerprint()

	if opts.CacheDir != "" {
		if res, ok := loadCache(opts.CacheDir, cacheKey(fp, spec)); ok {
			res.Cached = true
			return res, nil
		}
	}

	if dir == "" {
		return nil, errors.New("campaign: empty campaign directory")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return nil, fmt.Errorf("campaign: %s already holds a campaign; use Resume", dir)
	}
	groups, err := planShards(g, spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := graphml.WriteFile(filepath.Join(dir, graphFile), g); err != nil {
		return nil, err
	}
	man := Manifest{
		Version:     manifestVersion,
		CreatedUnix: time.Now().Unix(),
		GraphName:   g.Name,
		Fingerprint: fp,
		Spec:        spec,
	}
	for _, grp := range groups {
		man.TotalShards += len(grp)
		for _, s := range grp {
			man.TotalWork += s.work()
		}
	}
	if err := writeJSONAtomic(filepath.Join(dir, manifestFile), man); err != nil {
		return nil, err
	}
	return execute(ctx, dir, g, man, groups, map[int]Record{}, opts)
}

// Resume continues the campaign in dir to completion. See ResumeCtx.
func Resume(dir string, opts Options) (*Result, error) {
	return ResumeCtx(context.Background(), dir, opts)
}

// ResumeCtx loads the campaign in dir, skips every journaled shard, runs
// the rest, and merges both into the final result — bit-identical to an
// uninterrupted run, because shards are deterministic and merged in plan
// order. Resuming a completed campaign returns the stored result with
// Cached set.
func ResumeCtx(ctx context.Context, dir string, opts Options) (*Result, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if res, err := loadResult(dir); err == nil {
		res.Cached = true
		return res, nil
	}
	opts = opts.normalize()
	g, err := graphml.ReadFile(filepath.Join(dir, graphFile))
	if err != nil {
		return nil, fmt.Errorf("campaign: loading campaign graph: %w", err)
	}
	if fp := g.Fingerprint(); fp != man.Fingerprint {
		return nil, fmt.Errorf("campaign: graph in %s fingerprints %s, manifest says %s", dir, fp, man.Fingerprint)
	}
	groups, err := planShards(g, man.Spec)
	if err != nil {
		return nil, err
	}
	journaled, err := readJournal(dir)
	if err != nil {
		return nil, err
	}
	// Keep only records that exactly match their planned shard.
	done := make(map[int]Record, len(journaled))
	for _, grp := range groups {
		for _, s := range grp {
			if rec, ok := journaled[s.ID]; ok && s.matches(rec) {
				done[s.ID] = rec
			}
		}
	}
	return execute(ctx, dir, g, man, groups, done, opts)
}

// loadResult reads a stored final result from a campaign directory.
func loadResult(dir string) (*Result, error) {
	return decodeResultFile(filepath.Join(dir, resultFile))
}

// runner carries the execution state shared by the worker pool.
type runner struct {
	g     *graph.Graph
	spec  Spec
	opts  Options
	jw    *journalWriter
	done  map[int]Record
	start time.Time

	// samplers pools sim.StratifiedSampler instances over one shared CSR
	// (KindProfile and KindSampled): the kernel masks and collision
	// counters are the expensive part of a Monte Carlo shard, and pooling
	// keeps them warm across the shards a worker executes.
	samplers sync.Pool

	mu          sync.Mutex
	status      Status
	workThisRun int64
}

// execute runs all pending shards group by group, merges, persists, and
// caches the final result.
func execute(ctx context.Context, dir string, g *graph.Graph, man Manifest, groups [][]shard, done map[int]Record, opts Options) (*Result, error) {
	jw, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	defer jw.Close()

	r := &runner{
		g: g, spec: man.Spec, opts: opts, jw: jw, done: done, start: time.Now(),
		status: Status{
			Dir:         dir,
			Kind:        man.Spec.Kind,
			Fingerprint: man.Fingerprint,
			TotalShards: man.TotalShards,
			WorkTotal:   man.TotalWork,
		},
	}
	for _, rec := range done {
		r.status.DoneShards++
		r.status.WorkDone += recWork(rec)
	}
	opts.Metrics.Gauge(MetricShardsTotal).Set(int64(man.TotalShards))
	opts.Metrics.Gauge(MetricShardsDone).Set(int64(r.status.DoneShards))

	res := &Result{Kind: man.Spec.Kind, Fingerprint: man.Fingerprint, Spec: man.Spec}
	if man.Spec.Kind != KindWorstCase {
		csr := decode.NewCSR(g)
		r.samplers.New = func() any { return sim.NewStratifiedSampler(csr) }
	}
	switch man.Spec.Kind {
	case KindWorstCase:
		res.WorstCase, err = r.runWorstCase(ctx, groups)
	case KindProfile:
		res.Profile, err = r.runProfile(ctx, groups[0])
	case KindSampled:
		res.Sampled, err = r.runSampled(ctx, groups)
	default:
		err = man.Spec.validate()
	}
	if err != nil {
		return nil, err
	}
	res.WorkDone = r.status.WorkDone

	if err := writeJSONAtomic(filepath.Join(dir, resultFile), res); err != nil {
		return nil, err
	}
	if opts.CacheDir != "" {
		if err := storeCache(opts.CacheDir, cacheKey(man.Fingerprint, man.Spec), res); err != nil {
			return nil, fmt.Errorf("campaign: storing result cache: %w", err)
		}
	}
	r.mu.Lock()
	r.status.Completed = true
	st := r.status
	r.mu.Unlock()
	if opts.Progress != nil {
		opts.Progress(st)
	}
	return res, nil
}

func recWork(rec Record) int64 { return rec.Tested + rec.Trials }

// executeGroup fans the group's pending shards over the worker pool. It
// returns once every shard in the group is journaled, or with the first
// error (cancellation included; completed shards stay journaled).
func (r *runner) executeGroup(ctx context.Context, shards []shard) error {
	var pending []shard
	for _, s := range shards {
		if _, ok := r.done[s.ID]; !ok {
			pending = append(pending, s)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	ch := make(chan shard, len(pending))
	for _, s := range pending {
		ch <- s
	}
	close(ch)

	workers := min(r.opts.Workers, len(pending))
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				if ctx.Err() != nil {
					errs <- ctx.Err()
					return
				}
				rec, err := r.runShard(ctx, s)
				if err != nil {
					errs <- err
					return
				}
				if err := r.jw.append(rec); err != nil {
					errs <- err
					return
				}
				r.noteDone(s, rec)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func (r *runner) runShard(ctx context.Context, s shard) (Record, error) {
	if s.Trials == 0 {
		rr, err := sim.ScanRangeCtx(ctx, r.g, s.K, s.Lo, s.Hi, s.MaxFailures)
		if err != nil {
			return Record{}, err
		}
		return Record{Shard: s.ID, K: s.K, Tested: rr.Tested, FailCount: rr.FailureCount, Failures: rr.Failures}, nil
	}
	// Profile shards draw from the raw seed, as sim.FailureProfileCtx
	// does; sampled shards from the certification seed domain, as
	// sim.SampleStratifiedCtx does.
	seed := r.spec.Seed
	if r.spec.Kind == KindSampled {
		seed ^= sampledSeedDomain
	}
	sp := r.samplers.Get().(*sim.StratifiedSampler)
	blk, err := sp.SampleBlock(ctx, s.K, s.Trials, seed, s.Stream, s.MaxFailures)
	r.samplers.Put(sp)
	if err != nil {
		return Record{}, err
	}
	tally := blk.Tally()
	rec := Record{Shard: s.ID, K: s.K, Trials: tally.Trials, Hits: tally.Hits}
	if r.spec.Kind == KindSampled {
		rec.Screened = blk.Screened
		rec.Failures = blk.Witnesses
		rec.StrataHits = make([]int64, len(blk.Strata))
		rec.StrataTrials = make([]int64, len(blk.Strata))
		for i, p := range blk.Strata {
			rec.StrataHits[i], rec.StrataTrials[i] = p.Hits, p.Trials
		}
	}
	return rec, nil
}

// sampledSeedDomain is sim's certification seed domain: sampled shards
// XOR it into the spec seed so each shard draws exactly the block
// sim.SampleStratifiedCtx would (TestSampledCampaignMatchesSim pins the
// two equal).
const sampledSeedDomain = 0x5ca1ab1e

// noteDone records a completed shard and refreshes the progress gauges:
// shards done, evaluation rate over this process's lifetime, and the ETA
// implied by that rate and the remaining work.
func (r *runner) noteDone(s shard, rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[s.ID] = rec
	r.status.DoneShards++
	r.status.WorkDone += recWork(rec)
	r.workThisRun += recWork(rec)
	st := r.status

	m := r.opts.Metrics
	m.Gauge(MetricShardsDone).Set(int64(st.DoneShards))
	rate := float64(r.workThisRun) / time.Since(r.start).Seconds()
	if rate > 0 {
		if rate > 1e15 {
			rate = 1e15 // keep the int64 conversions defined for degenerate elapsed times
		}
		m.Gauge(MetricWorkPerSec).Set(int64(rate))
		m.Gauge(MetricETASeconds).Set(int64(float64(st.WorkTotal-st.WorkDone) / rate))
	}
	if r.opts.Progress != nil {
		r.opts.Progress(st) // under mu: callbacks observe monotone snapshots
	}
}

// runWorstCase executes cardinality groups in ascending order, merging each
// completed group and honoring the first-failure early stop exactly like
// sim.WorstCaseCtx.
func (r *runner) runWorstCase(ctx context.Context, groups [][]shard) (*sim.WorstCaseResult, error) {
	var res sim.WorstCaseResult
	for _, grp := range groups {
		if err := r.executeGroup(ctx, grp); err != nil {
			return nil, err
		}
		kr := r.mergeK(grp)
		res.PerK = append(res.PerK, kr)
		res.Tested += kr.Tested
		if kr.FailureCount > 0 && !res.Found {
			res.Found = true
			res.FirstFailure = kr.K
			if !r.spec.KeepGoing {
				break
			}
		}
	}
	return &res, nil
}

// mergeK folds a completed cardinality group into a KResult. Each shard
// records the lexicographically smallest MaxFailures failing sets of its
// rank range, so the concatenation of all shard lists contains the global
// lex-smallest MaxFailures; sorting then truncating reproduces exactly the
// prefix sim.ExhaustiveKCtx computes over its worker ranges, independent of
// shard layout, worker scheduling, and where a run was interrupted.
func (r *runner) mergeK(grp []shard) sim.KResult {
	kr := sim.KResult{K: grp[0].K}
	for _, s := range grp {
		rec := r.done[s.ID]
		kr.Tested += rec.Tested
		kr.FailureCount += rec.FailCount
		kr.Failures = append(kr.Failures, rec.Failures...)
	}
	slices.SortFunc(kr.Failures, slices.Compare)
	if max := grp[0].MaxFailures; len(kr.Failures) > max {
		kr.Failures = kr.Failures[:max:max]
	}
	return kr
}

// runProfile executes the (single) profile group and folds shard tallies
// into a sim.Profile.
func (r *runner) runProfile(ctx context.Context, grp []shard) (*sim.Profile, error) {
	if err := r.executeGroup(ctx, grp); err != nil {
		return nil, err
	}
	p := &sim.Profile{
		GraphName: r.g.Name,
		Total:     r.g.Total,
		Data:      r.g.Data,
		Fail:      make([]stats.Proportion, r.g.Total+1),
		Exact:     make([]bool, r.g.Total+1),
	}
	// k=0 is trivially exact: nothing missing.
	p.Fail[0] = stats.Proportion{Hits: 0, Trials: 1}
	p.Exact[0] = true
	for _, s := range grp {
		rec := r.done[s.ID]
		if s.Trials > 0 {
			p.Fail[s.K].Add(rec.Hits, rec.Trials)
		} else {
			p.Fail[s.K].Add(rec.FailCount, rec.Tested)
			p.Exact[s.K] = true
		}
	}
	return p, nil
}

// runSampled executes the sampled certification groups — one per
// (cardinality, round) in plan order — evaluating the planned-precision
// stopping rule at exactly the round boundaries sim.SampleStratifiedCtx
// uses. Once a cardinality reaches the epsilon target its remaining rounds
// are skipped (their shards stay unrun, like a worst-case early stop), so
// a resumed campaign replays the same merge sequence and stops at the same
// boundary as an uninterrupted one.
func (r *runner) runSampled(ctx context.Context, groups [][]shard) ([]*sim.SampledResult, error) {
	var out []*sim.SampledResult
	var cur *sim.SampledResult
	stopped := false
	for _, grp := range groups {
		k := grp[0].K
		if cur == nil || cur.K != k {
			cur = &sim.SampledResult{K: k, Strata: make([]stats.Proportion, k+1)}
			out = append(out, cur)
			stopped = false
		}
		if stopped {
			continue
		}
		if err := r.executeGroup(ctx, grp); err != nil {
			return nil, err
		}
		// Merge in shard (= block) order: tallies are integer sums and
		// witnesses carry block order, matching sim.mergeSampledBlock.
		for _, s := range grp {
			mergeSampledRecord(cur, r.done[s.ID], r.spec.MaxFailures)
		}
		cur.Rounds = append(cur.Rounds, sim.SampledRound{Trials: cur.Tally.Trials, HalfWidth: cur.HalfWidth()})
		if r.spec.Epsilon > 0 && cur.HalfWidth() <= r.spec.Epsilon {
			stopped = true
		}
	}
	return out, nil
}

// mergeSampledRecord folds one journaled sampled shard into the running
// per-cardinality result, reconstructing exactly what the sim driver's
// block merge computes.
func mergeSampledRecord(res *sim.SampledResult, rec Record, maxWitnesses int) {
	for s := range rec.StrataTrials {
		res.Strata[s].Add(rec.StrataHits[s], rec.StrataTrials[s])
	}
	res.Screened += rec.Screened
	for _, w := range rec.Failures {
		if len(res.Witnesses) >= maxWitnesses {
			break
		}
		res.Witnesses = append(res.Witnesses, w)
	}
	res.Tally = stats.Pool(res.Strata...)
}

// ReadStatus reports the progress of the campaign in dir without running
// anything.
func ReadStatus(dir string) (Status, error) {
	man, err := readManifest(dir)
	if err != nil {
		return Status{}, err
	}
	st := Status{
		Dir:         dir,
		Kind:        man.Spec.Kind,
		Fingerprint: man.Fingerprint,
		TotalShards: man.TotalShards,
		WorkTotal:   man.TotalWork,
	}
	done, err := readJournal(dir)
	if err != nil {
		return st, err
	}
	for _, rec := range done {
		st.DoneShards++
		st.WorkDone += recWork(rec)
	}
	if _, err := os.Stat(filepath.Join(dir, resultFile)); err == nil {
		st.Completed = true
	}
	return st, nil
}
