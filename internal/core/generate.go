// Package core implements the paper's primary contribution: the Tornado
// Code graph generator of §3.1, combining Luby's edge-degree construction
// with the Typhoon treatment of the final cascade stages, plus the
// structural defect screening of §3.3 that discards graphs containing small
// closed left-node sets.
//
// A generated code is a cascade of irregular bipartite graphs. For a
// 96-node rate-1/2 code the layout is
//
//	48 data | 24 checks | 12 checks | 6 + 6 checks (two stages sharing
//	                                  the 12 left nodes of the previous level)
//
// Left node degrees follow Luby's heavy-tail distribution; right node
// degrees follow a truncated Poisson. Both sides pass through the numeric
// solver of package dist, which scales the edge-degree distribution until
// the implied node counts are exact — the paper's fix for fragments such as
// "5 edges of degree 6" that appear at these small graph sizes.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"tornado/internal/dist"
	"tornado/internal/graph"
)

// Params configures graph generation. The zero value is not usable; start
// from DefaultParams.
type Params struct {
	// TotalNodes is the total node count (data + check). The code rate is
	// fixed at 1/2 as in the paper, so TotalNodes/2 are data nodes.
	TotalNodes int
	// HeavyTailD truncates Luby's heavy-tail left distribution at edge
	// degree D+1. D=16 yields the paper's average data-node degree of ≈3.6.
	HeavyTailD int
	// RightAlpha is the Poisson shape for right degrees; 0 selects E/R per
	// level automatically.
	RightAlpha float64
	// LeftDist overrides the left edge-degree distribution per level; it
	// receives the level's right node count (the hard cap on any left
	// node's degree) and must return a distribution whose maximum degree
	// respects it. Nil selects Luby's heavy tail truncated at HeavyTailD.
	// Used for the paper's "altered Tornado" variants (§4.3).
	LeftDist func(maxDegree int) dist.Dist
	// MinFinalLeft stops the cascade: when the next level would have fewer
	// than MinFinalLeft left nodes, the remaining parity budget is emitted
	// as two stages sharing the current left nodes (Typhoon, §3.1).
	MinFinalLeft int
	// DefectScanSize screens generated graphs for closed data-node sets up
	// to this size; findings are repaired by rewiring, and graphs that
	// cannot be repaired are discarded (§3.2–3.3).
	DefectScanSize int
	// RepairRounds bounds the number of defect-opening rewires attempted
	// per generated graph before it is discarded.
	RepairRounds int
	// MaxAttempts bounds regeneration when screening keeps rejecting.
	MaxAttempts int
}

// DefaultParams returns the parameters used throughout the paper's
// evaluation: 96 nodes, average data degree ≈3.6, defect screening to
// 3-node sets.
func DefaultParams() Params {
	return Params{
		TotalNodes:     96,
		HeavyTailD:     16,
		RightAlpha:     0,
		MinFinalLeft:   8,
		DefectScanSize: 3,
		RepairRounds:   64,
		MaxAttempts:    200,
	}
}

// ErrInvalidParams reports a Params value Generate and GenerateUnscreened
// refuse to build from, instead of returning a plausible-looking but
// degenerate graph.
var ErrInvalidParams = errors.New("core: invalid Params")

// validate rejects parameter sets with no usable left-degree
// distribution: without LeftDist, HeavyTailD < 1 would silently give every
// data node degree 1 (the zero-value trap of Params{TotalNodes: n}).
// DefectScanSize 0 stays legal; it disables screening.
func (p Params) validate() error {
	if p.LeftDist == nil && p.HeavyTailD < 1 {
		return fmt.Errorf("%w: HeavyTailD %d < 1 and no LeftDist (start from DefaultParams)", ErrInvalidParams, p.HeavyTailD)
	}
	return nil
}

// GenStats reports how generation went.
type GenStats struct {
	Attempts  int // graphs generated including the accepted one
	Discarded int // attempts rejected: unrepairable defects, or a streamed level that could not be wired
	Rewires   int // defect-opening rewires applied to the accepted graph
}

// LevelPlan describes the cascade layout for a node budget: the sizes of
// each check level and whether the final two share left nodes.
type LevelPlan struct {
	DataNodes  int
	CheckSizes []int // one entry per level; the last two always share left nodes
}

// PlanLevels computes the cascade layout for p. It returns an error when
// the halving chain hits an odd size before reaching MinFinalLeft.
func PlanLevels(p Params) (LevelPlan, error) {
	if p.TotalNodes < 8 || p.TotalNodes%2 != 0 {
		return LevelPlan{}, fmt.Errorf("core: TotalNodes must be an even count >= 8, got %d", p.TotalNodes)
	}
	data := p.TotalNodes / 2
	plan := LevelPlan{DataNodes: data}
	left := data
	for {
		if left%2 != 0 {
			return LevelPlan{}, fmt.Errorf("core: cascade reached odd level size %d; choose TotalNodes with a longer halving chain", left)
		}
		half := left / 2
		if half < p.MinFinalLeft {
			// Final Typhoon stages: two independent right sets of half/...
			// the remaining budget equals left, split into two stages.
			if half < 1 {
				return LevelPlan{}, fmt.Errorf("core: level size %d too small to split into final stages", left)
			}
			plan.CheckSizes = append(plan.CheckSizes, half, half)
			return plan, nil
		}
		plan.CheckSizes = append(plan.CheckSizes, half)
		left = half
	}
}

// Generate produces a defect-screened Tornado Code graph. The rng drives
// all randomness, so a fixed seed reproduces the same graph. Above
// StreamThreshold total nodes, construction and screening switch to the
// streaming path (see stream.go): O(edges) stub wiring instead of the
// quadratic per-edge stub scan, and closed-pair screening instead of the
// full subset scan. The sub-threshold path — and therefore every graph the
// paper's evaluation pins — is byte-identical to earlier releases.
func Generate(p Params, rng *rand.Rand) (*graph.Graph, GenStats, error) {
	var st GenStats
	if err := p.validate(); err != nil {
		return nil, st, err
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.RepairRounds < 0 {
		p.RepairRounds = 0
	}
	stream := p.TotalNodes > StreamThreshold
	for st.Attempts < p.MaxAttempts {
		st.Attempts++
		var g *graph.Graph
		var err error
		if stream {
			g, err = generateStreamOnce(p, rng)
		} else {
			g, err = generateOnce(p, rng)
		}
		if errors.Is(err, errStreamWiring) {
			st.Discarded++
			continue
		}
		if err != nil {
			return nil, st, err
		}
		var ok bool
		var rewires int
		if stream {
			ok, rewires = repairDefectsStream(g, p, rng)
		} else {
			ok, rewires = RepairDefects(g, p.DefectScanSize, p.RepairRounds, rng)
		}
		if !ok {
			st.Discarded++
			continue
		}
		st.Rewires = rewires
		if err := g.Validate(); err != nil {
			return nil, st, fmt.Errorf("core: repaired graph invalid: %w", err)
		}
		return g, st, nil
	}
	return nil, st, fmt.Errorf("core: no defect-free graph in %d attempts", p.MaxAttempts)
}

// GenerateUnscreened produces a graph without defect screening — the
// paper's "initial graph failure experiences" baseline (§3.2), kept for the
// Table 2 comparison.
func GenerateUnscreened(p Params, rng *rand.Rand) (*graph.Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.TotalNodes > StreamThreshold {
		return generateStreamOnce(p, rng)
	}
	return generateOnce(p, rng)
}

func generateOnce(p Params, rng *rand.Rand) (*graph.Graph, error) {
	plan, err := PlanLevels(p)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(plan.DataNodes)
	type levelRange struct{ leftFirst, leftCount, rightFirst, rightCount int }
	var lvs []levelRange
	leftFirst, leftCount := 0, plan.DataNodes
	for i, size := range plan.CheckSizes {
		rf := b.AddLevel(leftFirst, leftCount, size)
		lvs = append(lvs, levelRange{leftFirst, leftCount, rf, size})
		// Advance the left range except between the two shared final
		// stages.
		if i < len(plan.CheckSizes)-2 {
			leftFirst, leftCount = rf, size
		}
	}
	g := b.Graph()
	g.Name = fmt.Sprintf("tornado-%d", p.TotalNodes)

	for _, lv := range lvs {
		if err := wireLevel(g, p, lv.leftFirst, lv.leftCount, lv.rightFirst, lv.rightCount, rng); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated graph invalid: %w", err)
	}
	return g, nil
}

// wireLevel assigns edges between the level's left and right ranges using
// the configuration model: left degrees from the heavy-tail solver, right
// degrees from the Poisson solver constrained to the same edge total, then
// a random matching of edge stubs with duplicate-edge repair.
func wireLevel(g *graph.Graph, p Params, leftFirst, leftCount, rightFirst, rightCount int, rng *rand.Rand) error {
	leftDegs, rightDegs, err := levelDegrees(p, leftCount, rightCount)
	if err != nil {
		return err
	}

	const matchAttempts = 50
	for attempt := 0; ; attempt++ {
		rng.Shuffle(len(leftDegs), func(i, j int) { leftDegs[i], leftDegs[j] = leftDegs[j], leftDegs[i] })
		rng.Shuffle(len(rightDegs), func(i, j int) { rightDegs[i], rightDegs[j] = rightDegs[j], rightDegs[i] })
		if wireRandom(g, leftFirst, rightFirst, leftDegs, rightDegs, rng) {
			return nil
		}
		if attempt >= matchAttempts {
			// Deterministic fallback: Havel–Hakimi always realizes a
			// realizable degree pair. The resulting graph is less random
			// but still subject to defect screening upstream.
			if wireMatch(g, leftFirst, rightFirst, leftDegs, rightDegs, rng) {
				return nil
			}
			return fmt.Errorf("core: could not match level [%d+%d → %d+%d] without duplicate edges",
				leftFirst, leftCount, rightFirst, rightCount)
		}
	}
}

// levelDegrees solves the level's degree sequences: left degrees from the
// configured (default heavy-tail) distribution, right degrees from the
// truncated Poisson constrained to the same edge total. A left node of
// degree d needs d distinct right neighbors, so the left distribution's
// maximum degree must stay within the level's right node count.
func levelDegrees(p Params, leftCount, rightCount int) (leftDegs, rightDegs []int, err error) {
	var leftDist dist.Dist
	if p.LeftDist != nil {
		leftDist = p.LeftDist(rightCount)
		if leftDist.MaxDegree() > rightCount {
			return nil, nil, fmt.Errorf("core: custom left distribution max degree %d exceeds %d right nodes",
				leftDist.MaxDegree(), rightCount)
		}
	} else {
		D := min(p.HeavyTailD, rightCount-1)
		leftDist = dist.Uniform(1)
		if D >= 1 {
			leftDist = dist.HeavyTail(D)
		}
	}
	leftSol, err := dist.Solve(leftDist, leftCount)
	if err != nil {
		return nil, nil, fmt.Errorf("core: left solve: %w", err)
	}
	edges := leftSol.Edges

	alpha := p.RightAlpha
	if alpha <= 0 {
		alpha = float64(edges) / float64(rightCount)
	}
	maxRight := min(leftCount, int(math.Ceil(2*float64(edges)/float64(rightCount)))+2)
	rightSol, err := dist.SolveEdgesMax(dist.PoissonRight(alpha, maxRight), rightCount, edges, leftCount)
	if err != nil {
		return nil, nil, fmt.Errorf("core: right solve: %w", err)
	}
	return leftSol.Degrees(), rightSol.Degrees(), nil
}

// wireRandom assigns each right node d distinct left neighbors sampled
// without replacement with probability proportional to the lefts' remaining
// edge stubs (a per-node-deduplicated configuration model). It returns
// false when stub concentration leaves a right node short of distinct
// candidates, in which case the caller retries with fresh degree shuffles.
func wireRandom(g *graph.Graph, leftFirst, rightFirst int, leftDegs, rightDegs []int, rng *rand.Rand) bool {
	rem := append([]int(nil), leftDegs...)
	type assignment struct {
		right int
		lefts []int
	}
	assignments := make([]assignment, 0, len(rightDegs))

	// Larger rights first: they are hardest to satisfy with distinct lefts.
	order := rng.Perm(len(rightDegs))
	slices.SortStableFunc(order, func(a, b int) int { return rightDegs[b] - rightDegs[a] })

	picked := make([]int, 0, 8)
	for _, r := range order {
		d := rightDegs[r]
		picked = picked[:0]
		for j := 0; j < d; j++ {
			total := 0
			for _, v := range rem {
				if v > 0 {
					total += v
				}
			}
			if total == 0 {
				restore(rem, picked)
				return false
			}
			t := rng.IntN(total)
			li := -1
			for i, v := range rem {
				if v <= 0 {
					continue
				}
				if t < v {
					li = i
					break
				}
				t -= v
			}
			picked = append(picked, li)
			// Consume all of li's stubs temporarily so it cannot be
			// re-picked for this right; restore the surplus afterwards.
			rem[li] = -rem[li] + 1 // encode: negative magnitude remembers surplus
		}
		lefts := make([]int, 0, d)
		for _, li := range picked {
			lefts = append(lefts, leftFirst+li)
			rem[li] = -rem[li] // restore surplus (stubs minus the one consumed)
		}
		assignments = append(assignments, assignment{right: rightFirst + r, lefts: lefts})
	}
	for _, v := range rem {
		if v != 0 {
			return false
		}
	}
	for _, a := range assignments {
		g.SetNeighbors(a.right, a.lefts)
	}
	return true
}

// restore undoes the temporary stub encoding for a partially assigned right
// node.
func restore(rem []int, picked []int) {
	for _, li := range picked {
		if rem[li] < 0 {
			rem[li] = -rem[li]
		}
	}
}

// wireMatch realizes the bipartite degree sequence with a randomized
// Havel–Hakimi construction: rights are processed in descending degree
// order and each connects to the left nodes holding the most unconsumed
// edge stubs, breaking ties randomly. This always succeeds when the degree
// pair is realizable (Gale–Ryser); on the rare unrealizable shuffle it
// returns false and the caller redraws the degree assignment.
func wireMatch(g *graph.Graph, leftFirst, rightFirst int, leftDegs, rightDegs []int, rng *rand.Rand) bool {
	rem := append([]int(nil), leftDegs...)

	// Process rights largest-first with random tie-breaking.
	order := rng.Perm(len(rightDegs))
	slices.SortStableFunc(order, func(a, b int) int { return rightDegs[b] - rightDegs[a] })

	// cand holds left indices, re-sorted per right by remaining stubs.
	cand := make([]int, len(rem))
	type assignment struct {
		right int
		lefts []int
	}
	assignments := make([]assignment, 0, len(rightDegs))
	for _, r := range order {
		d := rightDegs[r]
		// Shuffle first so equal-rem lefts are picked uniformly, then
		// stable-sort by remaining stubs descending.
		perm := rng.Perm(len(rem))
		copy(cand, perm)
		slices.SortStableFunc(cand, func(a, b int) int { return rem[b] - rem[a] })
		if d > len(cand) || rem[cand[d-1]] <= 0 {
			return false // fewer than d lefts still have stubs
		}
		lefts := make([]int, 0, d)
		for _, li := range cand[:d] {
			rem[li]--
			lefts = append(lefts, leftFirst+li)
		}
		assignments = append(assignments, assignment{right: rightFirst + r, lefts: lefts})
	}
	for _, li := range rem {
		if li != 0 {
			return false // leftover stubs: degree sums diverged via clamping
		}
	}
	for _, a := range assignments {
		g.SetNeighbors(a.right, a.lefts)
	}
	return true
}
