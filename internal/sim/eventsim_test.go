package sim

import (
	"context"
	"math"
	"testing"

	"tornado/internal/raid"
	"tornado/internal/reliability"
)

// TestLifetimeMatchesMarkovNoRepair: without repair the profile-based
// Markov chain is exact for exchangeable systems (the survival product
// telescopes to 1−F(k)), so the event simulation must converge to it.
func TestLifetimeMatchesMarkovNoRepair(t *testing.T) {
	const pairs, lambda = 4, 0.5
	g := mirrorGraph(pairs)
	want, err := reliability.MTTDL(2*pairs, lambda, 0, 0, func(k int) float64 {
		return raid.MirroredFailGivenK(pairs, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: lambda, Runs: 4000, Seed: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != 0 {
		t.Fatalf("%d truncated runs at tiny MTTDL", res.Truncated)
	}
	if rel := math.Abs(res.MeanYears-want) / want; rel > 0.10 {
		t.Errorf("simulated MTTDL %v vs Markov %v (rel %v)", res.MeanYears, want, rel)
	}
}

// TestLifetimeRepairApproximatesMarkov: with repair the count-based chain
// is an approximation (survivorship bias in the conditional configuration),
// so agreement is checked loosely.
func TestLifetimeRepairApproximatesMarkov(t *testing.T) {
	const pairs, lambda, mu = 4, 0.5, 5.0
	g := mirrorGraph(pairs)
	want, err := reliability.MTTDL(2*pairs, lambda, mu, 1, func(k int) float64 {
		return raid.MirroredFailGivenK(pairs, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: lambda, Mu: mu, Repairmen: 1, Runs: 2500, Seed: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.MeanYears-want) / want; rel > 0.35 {
		t.Errorf("simulated MTTDL %v vs Markov %v (rel %v)", res.MeanYears, want, rel)
	}
	t.Logf("with repair: simulated %v vs Markov %v", res.MeanYears, want)
}

func TestLifetimeRepairExtendsLife(t *testing.T) {
	g := mirrorGraph(6)
	none, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{Lambda: 0.4, Runs: 800, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	crew, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: 0.4, Mu: 8, Repairmen: 2, Runs: 800, Seed: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if crew.MeanYears <= none.MeanYears {
		t.Errorf("repair did not extend lifetime: %v vs %v", crew.MeanYears, none.MeanYears)
	}
}

func TestLifetimeTornadoBeatsMirrorUnderSimulation(t *testing.T) {
	g := tornadoForAnnual(t)
	m := mirrorGraph(48)
	opts := LifetimeOptions{Lambda: 0.3, Mu: 6, Repairmen: 2, Runs: 250, Seed: 4, Workers: 2, MaxYears: 1e4}
	tr, err := SimulateLifetimeCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := SimulateLifetimeCtx(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lifetimes: tornado %v vs mirrored %v", tr.MeanYears, mr.MeanYears)
	if tr.MeanYears <= mr.MeanYears {
		t.Errorf("tornado lifetime %v <= mirrored %v", tr.MeanYears, mr.MeanYears)
	}
}

func TestLifetimeValidation(t *testing.T) {
	g := mirrorGraph(2)
	if _, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{Lambda: 0}); err == nil {
		t.Error("lambda 0 accepted")
	}
	if _, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{Lambda: 1, Mu: -1}); err == nil {
		t.Error("negative mu accepted")
	}
}

func TestLifetimeTruncation(t *testing.T) {
	// A tiny failure rate with aggressive repair: runs hit MaxYears.
	g := mirrorGraph(4)
	res, err := SimulateLifetimeCtx(context.Background(), g, LifetimeOptions{
		Lambda: 0.001, Mu: 1000, Repairmen: 4, Runs: 20, Seed: 5, MaxYears: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Error("expected truncated runs")
	}
	if res.MeanYears > 10 {
		t.Errorf("mean %v exceeds MaxYears", res.MeanYears)
	}
}
