// Package exp regenerates every table and figure of the paper's evaluation
// (§4–§5). It is shared by cmd/experiments and the repository's benchmark
// harness: each experiment function returns a rendered table (and, for the
// figures, the underlying curves) computed from freshly generated graphs.
//
// The paper spent 6 CPU-years; Config scales the same estimators down to
// laptop budgets. Quick() preserves every qualitative conclusion — who
// wins, by roughly what factor, where the crossovers fall — while Full()
// runs the paper-scale exhaustive searches (hours, not weeks, on a modern
// machine).
package exp

import (
	"context"
	"fmt"
	"math/rand/v2"

	"tornado/internal/adjust"
	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

// Config scales the experiment suite.
type Config struct {
	// Trials is the Monte Carlo sample count per profile point (the paper
	// used 10–34 million).
	Trials int64
	// AdjustK is the cardinality the adjustment procedure clears (the
	// paper cleared 4, yielding first failure 5).
	AdjustK int
	// CertifyK bounds the exhaustive worst-case searches.
	CertifyK int
	// Seeds are the generation seeds for "Tornado Graph 1..n"; three
	// graphs, as in the paper.
	Seeds []uint64
	// Workers bounds simulation goroutines (0 = GOMAXPROCS).
	Workers int
}

// Quick returns a configuration that reproduces every qualitative result
// in minutes on one core: adjustment clears k=3 (first failure 4) and the
// exhaustive certification stops at 4.
func Quick() Config {
	return Config{Trials: 4000, AdjustK: 3, CertifyK: 4, Seeds: []uint64{2006, 2007, 2011}}
}

// Full returns the paper-faithful configuration: adjustment clears k=4
// (first failure 5), certification searches through k=5, and profiles use
// heavier sampling. Expect tens of minutes per graph on one core.
func Full() Config {
	return Config{Trials: 200000, AdjustK: 4, CertifyK: 5, Seeds: []uint64{2006, 2007, 2011}}
}

// TornadoGraph is one prepared "Tornado Graph n": generated, screened,
// adjusted, certified, and profiled.
type TornadoGraph struct {
	Name         string
	Graph        *graph.Graph
	FirstFailure int // 0 = none found up to CertifyK
	FailuresAtFF int64
	TestedAtFF   int64
	CriticalSets [][]int // failing sets at the first failing cardinality
	Profile      *sim.Profile
}

// PrepareTornado generates, screens, adjusts and certifies one Tornado
// graph, then measures its failure profile.
func PrepareTornado(cfg Config, idx int) (*TornadoGraph, error) {
	if idx < 0 || idx >= len(cfg.Seeds) {
		return nil, fmt.Errorf("exp: graph index %d out of range", idx)
	}
	seed := cfg.Seeds[idx]
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		return nil, err
	}
	g, _, err = adjust.Improve(g, cfg.AdjustK, adjust.Options{Workers: cfg.Workers}, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("Tornado Graph %d", idx+1)
	return finishGraph(cfg, g)
}

// finishGraph certifies and profiles an already-built graph.
func finishGraph(cfg Config, g *graph.Graph) (*TornadoGraph, error) {
	tg := &TornadoGraph{Name: g.Name, Graph: g}
	wc, err := sim.WorstCaseCtx(context.Background(), g, sim.WorstCaseOptions{MaxK: cfg.CertifyK, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	if wc.Found {
		tg.FirstFailure = wc.FirstFailure
		last := wc.PerK[len(wc.PerK)-1]
		tg.FailuresAtFF = last.FailureCount
		tg.TestedAtFF = last.Tested
		tg.CriticalSets = last.Failures
	}
	tg.Profile, err = sim.FailureProfileCtx(context.Background(), g, sim.ProfileOptions{
		Trials: cfg.Trials, Workers: cfg.Workers, Seed: 0xF00D,
	})
	if err != nil {
		return nil, err
	}
	return tg, nil
}

// ProfileGraph certifies and profiles an arbitrary comparison graph (used
// by the alternate-family experiments).
func ProfileGraph(cfg Config, g *graph.Graph) (*TornadoGraph, error) {
	return finishGraph(cfg, g)
}
