package sim

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// TestExhaustiveKFailuresWorkerIndependent is the regression test for the
// scheduling-dependent failure witnesses: with more failing sets than the
// cap, every worker count must report the identical KResult — the
// lexicographically smallest maxFailures failing sets, ascending.
func TestExhaustiveKFailuresWorkerIndependent(t *testing.T) {
	g := mirrorGraph(8) // k=3: every set containing a mirrored pair fails
	const k, maxFailures = 3, 10

	base, err := ExhaustiveKCtx(context.Background(), g, k, maxFailures, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.FailureCount <= maxFailures {
		t.Fatalf("fixture too tame: %d failures, need > %d for the cap to bite", base.FailureCount, maxFailures)
	}
	if len(base.Failures) != maxFailures {
		t.Fatalf("recorded %d failures, want the full cap %d", len(base.Failures), maxFailures)
	}
	for _, workers := range []int{2, 3, 8} {
		kr, err := ExhaustiveKCtx(context.Background(), g, k, maxFailures, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kr, base) {
			t.Errorf("workers=%d: KResult differs from workers=1:\n got %+v\nwant %+v", workers, kr, base)
		}
	}

	// The recorded sets are exactly the lexicographic head of the full
	// failure population.
	all, err := ExhaustiveKCtx(context.Background(), g, k, int(base.FailureCount), 4)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(all.Failures)) != base.FailureCount {
		t.Fatalf("uncapped scan recorded %d of %d failures", len(all.Failures), base.FailureCount)
	}
	if !slices.IsSortedFunc(all.Failures, slices.Compare) {
		t.Fatal("uncapped failures not sorted")
	}
	if !reflect.DeepEqual(base.Failures, all.Failures[:maxFailures]) {
		t.Errorf("capped failures are not the lex-smallest prefix:\n got %v\nwant %v", base.Failures, all.Failures[:maxFailures])
	}
}

// TestExhaustiveKCtxPropagatesWorkerError: a canceled context surfaces as
// the workers' error instead of a partial result reported as success.
func TestExhaustiveKCtxPropagatesWorkerError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExhaustiveKCtx(ctx, mirrorGraph(8), 3, 4, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("ExhaustiveKCtx(canceled) = %v, want context.Canceled", err)
	}
}

func TestRecordFailure(t *testing.T) {
	var fs [][]int
	for _, s := range [][]int{{5, 6}, {1, 2}, {3, 4}, {0, 9}} {
		fs = recordFailure(fs, s, 3)
	}
	want := [][]int{{0, 9}, {1, 2}, {3, 4}}
	if !reflect.DeepEqual(fs, want) {
		t.Errorf("recordFailure kept %v, want %v", fs, want)
	}
	// A set larger than the current maximum is ignored once full.
	if fs2 := recordFailure(fs, []int{7, 8}, 3); !reflect.DeepEqual(fs2, want) {
		t.Errorf("full list admitted a larger set: %v", fs2)
	}
	if fs2 := recordFailure(fs, []int{1, 0}, 0); len(fs2) != len(fs) {
		t.Errorf("maxFailures=0 recorded a set")
	}
}
