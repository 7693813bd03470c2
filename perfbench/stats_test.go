package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"
	"time"
)

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}}, 0, 10, 2},
		{[][2]int64{{2, 6}, {4, 8}}, 0, 10, 6},         // overlapping children count once
		{[][2]int64{{6, 8}, {1, 3}}, 0, 10, 4},         // any order
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},       // clipped to the parent
		{[][2]int64{{1, 9}, {2, 3}, {4, 5}}, 0, 10, 8}, // nested
		{[][2]int64{{3, 3}, {12, 15}}, 0, 10, 0},       // empty and outside
	} {
		if got := covered(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestPercentileCountsFailuresBeyondAnyLimit(t *testing.T) {
	lat := make([]time.Duration, 99)
	for i := range lat {
		lat[i] = time.Duration(99-i) * time.Millisecond
	}
	if v, ok, beyond := percentile(lat, 1, 0.99); !ok || v != 99*time.Millisecond || beyond != 1 {
		t.Errorf("p99 of 99 ops + 1 failure = %v ok=%v beyond=%d, want 99ms true 1", v, ok, beyond)
	}
	if _, ok, _ := percentile(lat, 2, 0.99); ok {
		t.Error("p99 with 2 failures in 101 ops should land on a failure")
	}
	if v, ok, beyond := percentile(lat, 0, 0.5); !ok || v != 50*time.Millisecond || beyond != 49 {
		t.Errorf("p50 of 99 ops = %v ok=%v beyond=%d, want 50ms true 49", v, ok, beyond)
	}
	if _, ok, _ := percentile(nil, 0, 0.5); ok {
		t.Error("percentile of no operations should not be ok")
	}
}

func TestZipfPickerPrefersLowRanks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	z := newZipf(256, zipfS, rng)
	counts := make([]int, 256)
	for i := 0; i < 100_000; i++ {
		counts[z.pick(rng)]++
	}
	if hot, cold := counts[z.perm[0]], counts[z.perm[255]]; hot < 50*cold {
		t.Errorf("rank 0 drawn %d times, rank 255 %d: want a steep Zipf(1.1) skew", hot, cold)
	}
}

// TestMetricListsMatchManifest keeps the metrics the benchmark prints in
// step with BENCHMARK.json: same names, units and order, in both modes.
func TestMetricListsMatchManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end-to-end", endToEndMetrics, manifest.EndToEnd)
	check("per-layer", perLayerMetrics, manifest.PerLayer)
}
