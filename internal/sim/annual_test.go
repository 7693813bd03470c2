package sim

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"tornado/internal/core"
	"tornado/internal/graph"
	"tornado/internal/raid"
	"tornado/internal/reliability"
)

// TestAnnualLossMatchesEquation3 cross-validates the §5.1 analysis end to
// end: direct simulation of independent device failures against the
// Equation (2)–(3) composition, on the mirrored system whose conditional
// profile is known in closed form. A high AFR makes losses frequent enough
// to measure tightly.
func TestAnnualLossMatchesEquation3(t *testing.T) {
	const pairs, afr = 8, 0.15
	g := mirrorGraph(pairs)
	want := reliability.SystemFailure(2*pairs, afr, func(k int) float64 {
		return raid.MirroredFailGivenK(pairs, k)
	})
	got, err := AnnualLossMonteCarlo(g, afr, 60000, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := got.Wilson(3.5) // wide interval: this must not flake
	if want < lo || want > hi {
		t.Errorf("analytic %v outside simulated interval [%v, %v] (est %v)", want, lo, hi, got.Estimate())
	}
}

func TestAnnualLossEdgeCases(t *testing.T) {
	g := mirrorGraph(4)
	p, err := AnnualLossMonteCarlo(g, 0, 1000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 0 {
		t.Errorf("afr=0 produced %d losses", p.Hits)
	}
	p, err = AnnualLossMonteCarlo(g, 1, 1000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != p.Trials {
		t.Errorf("afr=1 survived %d times", p.Trials-p.Hits)
	}
	if _, err := AnnualLossMonteCarlo(g, -0.1, 10, 1, 1); err == nil {
		t.Error("negative afr accepted")
	}
	if _, err := AnnualLossMonteCarlo(g, 1.5, 10, 1, 1); err == nil {
		t.Error("afr>1 accepted")
	}
}

func TestAnnualLossDefaultTrials(t *testing.T) {
	g := mirrorGraph(2)
	p, err := AnnualLossMonteCarlo(g, 0.1, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trials != 10000 {
		t.Errorf("default trials = %d", p.Trials)
	}
}

// TestAnnualLossOnTornadoProfileConsistency: for a tornado graph at an
// elevated AFR, simulation and the profile-composed analytic must agree.
func TestAnnualLossOnTornadoProfile(t *testing.T) {
	g := tornadoForAnnual(t)
	const afr = 0.2
	prof, err := FailureProfileCtx(context.Background(), g, ProfileOptions{Trials: 20000, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := reliability.SystemFailure(g.Total, afr, prof.FailFraction)
	got, err := AnnualLossMonteCarlo(g, afr, 30000, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Estimate()-want) > 0.02 {
		t.Errorf("simulated %v vs composed %v", got.Estimate(), want)
	}
}

// tornadoForAnnual builds a screened tornado graph for the annual-loss
// consistency test.
func tornadoForAnnual(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 3)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}
