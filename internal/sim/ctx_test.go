package sim

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/graph"
)

func ctxTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2006, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goroutineSettles waits for the goroutine count to return to (about) the
// pre-test baseline, retrying because worker exit is asynchronous.
func goroutineSettles(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", n, baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorstCaseCtxCancellation is the issue's acceptance criterion:
// cancelling a large exhaustive search returns promptly — within one
// combination-chunk boundary — with ctx.Err(), and the search workers all
// exit (no goroutine leak).
func TestWorstCaseCtxCancellation(t *testing.T) {
	g := ctxTestGraph(t)
	baseline := runtime.NumGoroutine()

	// MaxK 6 over 96 nodes is ~1e9 combinations: minutes of work, so a
	// prompt return can only come from the cancellation path.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := WorstCaseCtx(ctx, g, WorstCaseOptions{MaxK: 6, KeepGoing: true})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the workers spin up and descend
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled worst-case search did not return promptly")
	}
	goroutineSettles(t, baseline+1) // +1: the finished helper goroutine may linger an instant
}

func TestWorstCaseCtxPreCancelled(t *testing.T) {
	g := ctxTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WorstCaseCtx(ctx, g, WorstCaseOptions{MaxK: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestProfileCtxCancellation(t *testing.T) {
	g := ctxTestGraph(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Large trial count so sampling dominates and cancellation hits the
		// Monte Carlo worker loop.
		_, err := FailureProfileCtx(ctx, g, ProfileOptions{Trials: 50_000_000, ExhaustiveLimit: 1})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled profile did not return promptly")
	}
	goroutineSettles(t, baseline+1)
}

func TestOverheadCtxCancellation(t *testing.T) {
	g := ctxTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := OverheadCtx(ctx, g, OverheadOptions{Trials: 50_000_000})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled overhead measurement did not return promptly")
	}
}

// TestKernelScanCancellationLeaksNothing cancels an exhaustive kernel scan
// mid-flight and checks that every scan worker (each owning a private
// Kernel and its scratch arrays) exits — no goroutine is left holding a
// kernel — and that a fresh scan afterwards produces the full, correct
// result, i.e. the abandoned scan left no shared state behind.
func TestKernelScanCancellationLeaksNothing(t *testing.T) {
	g := ctxTestGraph(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// C(96,5) ≈ 6e7 combinations: enough work that a prompt return can
		// only come from the cancellation path inside ScanRangeCtx.
		_, err := ExhaustiveKCtx(ctx, g, 5, DefaultMaxFailures, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled kernel scan did not return promptly")
	}
	goroutineSettles(t, baseline+1)

	// The interrupted scan must not affect a subsequent one: k=2 completes
	// fast and its counts are ground truth for a screened Tornado graph.
	kr, err := ExhaustiveKCtx(context.Background(), g, 2, DefaultMaxFailures, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := combin.BinomialInt64(g.Total, 2); kr.Tested != want {
		t.Errorf("post-cancel scan tested %d combinations, want %d", kr.Tested, want)
	}
}
