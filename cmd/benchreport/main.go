// Command benchreport measures the certification-scan hot path and writes a
// machine-readable BENCH_decode.json: ns/pattern, patterns/sec, and
// allocs/op for the legacy full-reset Decoder scan (decoder_scan_range, a
// replica of the pre-kernel scan), the CSR kernel's one-shot path, the
// incremental revolving-door kernel loop, the scalar kernel scan end to end
// (sim_scan_range, a replica of the scalar ScanRangeCtx that preceded the
// bit-sliced scan), and sim.ScanRangeCtx itself, the bit-sliced 64-lane
// scan (sliced_scan_range, plus its steady-state sliced_eval_word). Five
// before/after ratios are reported: scan_speedup (pre-kernel versus scalar
// kernel scan, end to end), kernel_scan_speedup (the per-pattern inner
// loop alone), recoverable_k5_speedup (one k=5 recoverability query,
// one-shot Decoder versus the kernel in scan order), sliced_scan_speedup
// (pre-kernel Decoder scan versus sim.ScanRangeCtx, gated >= 8x in
// -check), and sliced_vs_scalar_scan (scalar kernel scan versus
// sim.ScanRangeCtx, gated >= 2.5x in -check).
//
// It also measures the closed-set defect scan (DESIGN.md "Defect kernels")
// and writes BENCH_defect.json: the map-per-subset ReferenceScan (the
// "before"), the bitmask-kernel ScanDataLevel (the "after"), and the
// steady-state revolving-door kernel loop, with defect_scan_speedup as the
// before/after ratio of a full maxSize-4 data-level scan.
//
// Usage:
//
//	benchreport [-o BENCH_decode.json] [-defect-o BENCH_defect.json] [-check]
//
// -check exits nonzero when a steady-state kernel benchmark allocates,
// which is how CI guards the zero-allocation invariant on both reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tornado/internal/combin"
	"tornado/internal/core"
	"tornado/internal/decode"
	"tornado/internal/defect"
	"tornado/internal/graph"
	"tornado/internal/sim"
)

const scanK = 5 // the paper's deepest routinely-certified cardinality

// result is one benchmark row of the report.
type result struct {
	Name           string  `json:"name"`
	NsPerPattern   float64 `json:"ns_per_pattern"`
	PatternsPerSec float64 `json:"patterns_per_sec"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	Iterations     int     `json:"iterations"`
	// SteadyState marks benchmarks whose allocs/op must be zero (-check).
	SteadyState bool `json:"steady_state"`
}

type report struct {
	GeneratedUnix int64    `json:"generated_unix"`
	GoVersion     string   `json:"go_version"`
	Graph         string   `json:"graph"`
	Nodes         int      `json:"nodes"`
	DataNodes     int      `json:"data_nodes"`
	ScanK         int      `json:"scan_k"`
	Benchmarks    []result `json:"benchmarks"`
	// ScanSpeedup is decoder_scan_range ns/pattern divided by
	// sim_scan_range ns/pattern — the end-to-end before/after of the
	// incremental scalar kernel, including enumeration, cancellation
	// checks, and metrics flushes on both sides.
	ScanSpeedup float64 `json:"scan_speedup"`
	// KernelScanSpeedup is decoder_lex_scan / kernel_gray_scan — the
	// per-pattern inner loop alone: full Decoder evaluation in
	// lexicographic order versus one revolving-door swap plus one
	// incremental Eval.
	KernelScanSpeedup float64 `json:"kernel_scan_speedup"`
	// RecoverableK5Speedup is decoder_oneshot_k5 / kernel_gray_scan —
	// what one k=5 recoverability query costs before and after: the
	// BenchmarkRecoverableK5-class baseline (stateful Decoder, full
	// erase + peel + reset per independent query) against the same query
	// answered by the incremental kernel in scan order, where the erasure
	// set is reached by a one-swap delta instead of built from scratch.
	RecoverableK5Speedup float64 `json:"recoverable_k5_speedup"`
	// SlicedScanSpeedup is decoder_scan_range / sliced_scan_range — the
	// pre-kernel Decoder scan against sim.ScanRangeCtx (the bit-sliced
	// 64-lane scan with certificate pruning), both end to end. CI gates
	// this at >= 8x.
	SlicedScanSpeedup float64 `json:"sliced_scan_speedup"`
	// SlicedVsScalarScan is sim_scan_range / sliced_scan_range —
	// sim.ScanRangeCtx against the replica of the incremental scalar
	// kernel scan it replaced, both end to end. CI gates this at >= 2.5x.
	SlicedVsScalarScan float64 `json:"sliced_vs_scalar_scan"`
}

// defectScanMaxSize is the scan depth of the defect benchmarks — one past
// the generation gate's default, the depth certification sweeps use.
const defectScanMaxSize = 4

// defectReport is the BENCH_defect.json payload.
type defectReport struct {
	GeneratedUnix int64    `json:"generated_unix"`
	GoVersion     string   `json:"go_version"`
	Graph         string   `json:"graph"`
	Nodes         int      `json:"nodes"`
	DataNodes     int      `json:"data_nodes"`
	MaxSize       int      `json:"max_size"`
	Benchmarks    []result `json:"benchmarks"`
	// DefectScanSpeedup is defect_reference_scan / defect_kernel_scan —
	// the before/after of one full data-level closed-set scan to
	// defectScanMaxSize: lexicographic map-per-subset oracle versus the
	// sharded revolving-door bitmask kernel.
	DefectScanSpeedup float64 `json:"defect_scan_speedup"`
}

func run(name string, patternsPerOp int64, steady bool, fn func(b *testing.B)) result {
	br := testing.Benchmark(fn)
	ns := float64(br.NsPerOp()) / float64(patternsPerOp)
	if ns <= 0 { // sub-ns ops round to zero; recompute from totals
		ns = float64(br.T.Nanoseconds()) / float64(int64(br.N)*patternsPerOp)
	}
	r := result{
		Name:           name,
		NsPerPattern:   ns,
		PatternsPerSec: 1e9 / ns,
		BytesPerOp:     br.AllocedBytesPerOp(),
		AllocsPerOp:    br.AllocsPerOp(),
		Iterations:     br.N,
		SteadyState:    steady,
	}
	fmt.Printf("%-24s %10.1f ns/pattern %14.0f patterns/sec %4d allocs/op\n",
		r.Name, r.NsPerPattern, r.PatternsPerSec, r.AllocsPerOp)
	return r
}

func main() {
	out := flag.String("o", "BENCH_decode.json", "report output path")
	defectOut := flag.String("defect-o", "BENCH_defect.json", "defect-scan report output path")
	serveOut := flag.String("serve-o", "BENCH_serve.json", "serve-layer report output path")
	repairOut := flag.String("repair-o", "BENCH_repair.json", "repair-economics report output path")
	fedOut := flag.String("federation-o", "BENCH_federation.json", "federation report output path")
	certifyOut := flag.String("certify-o", "BENCH_certify.json", "sampled-certification report output path")
	check := flag.Bool("check", false, "exit nonzero if a steady-state kernel benchmark allocates")
	flag.Parse()

	// The paper graph: a generated, screened 96-node Tornado cascade.
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		Graph:         "core.Generate(DefaultParams, PCG(2006,0))",
		Nodes:         g.Total,
		DataNodes:     g.Data,
		ScanK:         scanK,
	}

	rep.Benchmarks = append(rep.Benchmarks,
		run("decoder_oneshot_k5", 1, false, func(b *testing.B) { benchDecoderOneShot(b, g) }),
		run("kernel_oneshot_k5", 1, true, func(b *testing.B) { benchKernelOneShot(b, g) }),
		run("decoder_lex_scan", 1, false, func(b *testing.B) { benchDecoderLexScan(b, g) }),
		run("kernel_gray_scan", 1, true, func(b *testing.B) { benchKernelGrayScan(b, g) }),
		run("decoder_scan_range", scanRangePatterns, false, func(b *testing.B) { benchDecoderScanRange(b, g) }),
		run("sim_scan_range", scanRangePatterns, false, func(b *testing.B) { benchScanRange(b, g) }),
		run("sliced_scan_range", scanRangePatterns, false, func(b *testing.B) { benchSlicedScanRange(b, g) }),
		run("sliced_eval_word", decode.Lanes, true, func(b *testing.B) { benchSlicedEvalWord(b, g) }),
	)

	ns := map[string]float64{}
	for _, r := range rep.Benchmarks {
		ns[r.Name] = r.NsPerPattern
	}
	rep.ScanSpeedup = ns["decoder_scan_range"] / ns["sim_scan_range"]
	rep.KernelScanSpeedup = ns["decoder_lex_scan"] / ns["kernel_gray_scan"]
	rep.RecoverableK5Speedup = ns["decoder_oneshot_k5"] / ns["kernel_gray_scan"]
	rep.SlicedScanSpeedup = ns["decoder_scan_range"] / ns["sliced_scan_range"]
	rep.SlicedVsScalarScan = ns["sim_scan_range"] / ns["sliced_scan_range"]
	fmt.Printf("scan speedup:           %6.2fx (pre-kernel scan range / scalar kernel scan range, end to end)\n", rep.ScanSpeedup)
	fmt.Printf("kernel scan speedup:    %6.2fx (lex Decoder loop / revolving-door kernel loop)\n", rep.KernelScanSpeedup)
	fmt.Printf("RecoverableK5 speedup:  %6.2fx (one-shot Decoder query / kernel query in scan order)\n", rep.RecoverableK5Speedup)
	fmt.Printf("sliced scan speedup:    %6.2fx (pre-kernel scan range / sim.ScanRangeCtx, end to end)\n", rep.SlicedScanSpeedup)
	fmt.Printf("sliced vs scalar scan:  %6.2fx (scalar kernel scan range / sim.ScanRangeCtx, end to end)\n", rep.SlicedVsScalarScan)

	writeJSON(*out, rep)

	// The defect-scan report: one full data-level scan per op, so the
	// per-pattern figures divide by the subsets a maxSize-4 scan examines.
	drep := defectReport{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		Graph:         rep.Graph,
		Nodes:         g.Total,
		DataNodes:     g.Data,
		MaxSize:       defectScanMaxSize,
	}
	drep.Benchmarks = append(drep.Benchmarks,
		run("defect_reference_scan", defectScanSubsets(g), false, func(b *testing.B) { benchDefectReferenceScan(b, g) }),
		run("defect_kernel_scan", defectScanSubsets(g), false, func(b *testing.B) { benchDefectKernelScan(b, g) }),
		run("defect_kernel_loop", 1, true, func(b *testing.B) { benchDefectKernelLoop(b, g) }),
	)
	dns := map[string]float64{}
	for _, r := range drep.Benchmarks {
		dns[r.Name] = r.NsPerPattern
	}
	drep.DefectScanSpeedup = dns["defect_reference_scan"] / dns["defect_kernel_scan"]
	fmt.Printf("defect scan speedup:    %6.2fx (map-per-subset reference / bitmask kernel, maxSize %d)\n",
		drep.DefectScanSpeedup, defectScanMaxSize)
	writeJSON(*defectOut, drep)

	// The serve-layer report: the Zipf load generator over a chaos backend
	// with a concurrent scrub, plus the data-path steady-state benchmarks.
	srep := serveSection(g)
	writeJSON(*serveOut, srep)

	// The repair-economics report: the extended RAID comparison plus the
	// measured single-device-loss accounting run.
	rrep := repairSection(g)
	for _, row := range rrep.Systems {
		label := row.System
		if row.Placement != "" {
			label += "/" + row.Placement
		}
		fmt.Printf("repair: %-28s overhead %.2fx tolerance %d reads/loss %5.2f (remote %5.2f)\n",
			label, row.StorageOverhead, row.Tolerance, row.RepairReadsPerLoss, row.RemoteReadsPerLoss)
	}
	fmt.Printf("repair measured: %.2f surplus reads/loss, %.3f repair bytes/lost byte, unattributed %d read / %d written\n",
		rrep.Measured.RepairReadsPerLoss, rrep.Measured.RepairBytesPerLostByte,
		rrep.Measured.UnattributedReadBytes, rrep.Measured.UnattributedWriteBytes)
	writeJSON(*repairOut, rrep)

	// The federation report: §5.3 joint tolerance for every certified
	// graph combination, plus the measured 3-site disaster-recovery run.
	frep := federationSection()
	for _, row := range frep.Joint {
		fmt.Printf("federation: %-35s joint first-failure %2d (best single site %d, mirrored critical sets survive: %v)\n",
			strings.Join(row.Graphs, "+"), row.DetectedFirstFailure, row.BestSingleSite,
			row.SurvivesMirroredCriticalSets)
	}
	fmt.Printf("federation disaster: site %d wiped, %.0f KiB moved cross-site (%.2f bytes/stored byte) in %.3fs, residue missing=%d\n",
		frep.Disaster.Victim,
		float64(frep.Disaster.RepairBytesRead+frep.Disaster.RepairBytesWritten)/1024,
		frep.Disaster.RepairBytesPerStoredByte, frep.Disaster.RecoverySeconds, frep.Disaster.MissingAfter)
	writeJSON(*fedOut, frep)

	// The certify report: archival-scale sampled certification on a
	// streamed n=10,000 graph — throughput to the 1e-4 CI target, the
	// precision trajectory, the screening rate, the sampler's fixed
	// per-block allocation profile, and the CSR's linear memory.
	crep := certifySection()
	fmt.Printf("certify: n=%d k=%d, %d trials to CI half-width %.2e in %.2fs (%.0f patterns/sec, %.1f%% screened, graph streamed in %.0fms, CSR %d KiB of %d bound)\n",
		crep.Nodes, crep.K, crep.Trials, crep.CIHalfWidth, crep.CertifySeconds,
		crep.PatternsPerSec, 100*crep.ScreenRate, 1000*crep.GenerateSeconds,
		crep.CSRAllocBytes>>10, crep.CSRAllocBound>>10)
	writeJSON(*certifyOut, crep)

	if *check {
		failed := false
		all := append(append([]result(nil), rep.Benchmarks...), drep.Benchmarks...)
		all = append(all, srep.Benchmarks...)
		for _, r := range all {
			if r.SteadyState && r.AllocsPerOp > 0 {
				fmt.Fprintf(os.Stderr, "benchreport: %s allocates %d/op; steady-state kernel paths must be allocation-free\n",
					r.Name, r.AllocsPerOp)
				failed = true
			}
		}
		// Sliced-scan throughput gates: sim.ScanRangeCtx must beat the
		// pre-kernel Decoder scan replica by >= 8x end to end and the
		// scalar kernel scan replica by >= 2.5x. Generous margins below the
		// measured ~17x / ~3.5x keep the gate a regression tripwire, not a
		// machine-speed lottery.
		if rep.SlicedScanSpeedup < 8 {
			fmt.Fprintf(os.Stderr, "benchreport: sliced scan is %.2fx the pre-kernel Decoder scan, below the 8x floor\n",
				rep.SlicedScanSpeedup)
			failed = true
		}
		if rep.SlicedVsScalarScan < 2.5 {
			fmt.Fprintf(os.Stderr, "benchreport: sliced scan is %.2fx the scalar kernel scan, below the 2.5x floor\n",
				rep.SlicedVsScalarScan)
			failed = true
		}
		if srep.Corrupted != 0 {
			fmt.Fprintf(os.Stderr, "benchreport: serve load returned %d silently corrupt payloads; the archive invariant is bit-exact-or-error\n",
				srep.Corrupted)
			failed = true
		}
		if srep.StreamAllocsPerStripe > srep.StreamAllocBudgetPerStripe {
			fmt.Fprintf(os.Stderr, "benchreport: stream stripe loop allocates %.2f/stripe, over the backend-contract budget of %.0f (one key string per node + one caller-owned read copy per block); the archive layer must add no per-stripe allocation of its own\n",
				srep.StreamAllocsPerStripe, srep.StreamAllocBudgetPerStripe)
			failed = true
		}
		// Repair-economics gates: every backend byte the measured run moved
		// must be attributed (the conservation law), and the degree-aware
		// placement must actually reduce cross-group single-loss repair
		// traffic versus the identity layout on every certified graph.
		if rrep.Measured.UnattributedReadBytes != 0 || rrep.Measured.UnattributedWriteBytes != 0 {
			fmt.Fprintf(os.Stderr, "benchreport: repair accounting leaked %d read / %d written bytes unattributed; the meter must conserve exactly\n",
				rrep.Measured.UnattributedReadBytes, rrep.Measured.UnattributedWriteBytes)
			failed = true
		}
		identityRemote := map[string]float64{}
		for _, row := range rrep.Systems {
			if row.Placement == "identity" {
				identityRemote[row.System] = row.RemoteReadsPerLoss
			}
		}
		for _, row := range rrep.Systems {
			if row.Placement != "degree-aware" {
				continue
			}
			if row.RemoteReadsPerLoss >= identityRemote[row.System] {
				fmt.Fprintf(os.Stderr, "benchreport: degree-aware placement on %s reads %.2f remote blocks/loss, not below identity's %.2f; co-location regressed\n",
					row.System, row.RemoteReadsPerLoss, identityRemote[row.System])
				failed = true
			}
		}
		// Federation gates: every certified critical set, mirrored across
		// all sites, must survive joint exchange (zero data loss on the
		// certified complementary sets), the wiped site must come back
		// whole, and the cross-site byte accounting must conserve exactly
		// (zero unattributed federation bytes).
		for _, row := range frep.Joint {
			if !row.SurvivesMirroredCriticalSets {
				fmt.Fprintf(os.Stderr, "benchreport: federation %s lost data on a mirrored certified critical set; complementary exchange must recover all of them\n",
					strings.Join(row.Graphs, "+"))
				failed = true
			}
		}
		if frep.Disaster.MissingAfter != 0 || frep.Disaster.Unrecoverable != 0 {
			fmt.Fprintf(os.Stderr, "benchreport: federation disaster run left missing=%d unrecoverable=%d at the wiped site\n",
				frep.Disaster.MissingAfter, frep.Disaster.Unrecoverable)
			failed = true
		}
		if frep.Disaster.UnattributedReadBytes != 0 || frep.Disaster.UnattributedWriteBytes != 0 {
			fmt.Fprintf(os.Stderr, "benchreport: federation repair leaked %d read / %d written bytes unattributed; every cross-site byte must carry the federation cause\n",
				frep.Disaster.UnattributedReadBytes, frep.Disaster.UnattributedWriteBytes)
			failed = true
		}
		// Certify gates: the sampled certification must reach its CI target,
		// keep the structural screen effective, and the sampler hot loop must
		// not allocate per trial.
		if checkCertify(crep) {
			failed = true
		}
		if failed {
			os.Exit(1)
		}
	}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// benchDecoderOneShot is the pre-kernel baseline: the stateful Decoder
// answering independent random k=5 patterns with a full erase + reset per
// pattern.
func benchDecoderOneShot(b *testing.B, g *graph.Graph) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := decode.New(g)
	erased := make([]int, scanK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range erased {
			erased[j] = rng.IntN(g.Total)
		}
		d.Recoverable(erased)
	}
}

// benchKernelOneShot is the kernel on the same independent-pattern
// workload (the Monte Carlo access pattern).
func benchKernelOneShot(b *testing.B, g *graph.Graph) {
	rng := rand.New(rand.NewPCG(1, 2))
	kn := decode.NewKernel(decode.NewCSR(g))
	erased := make([]int, scanK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range erased {
			erased[j] = rng.IntN(g.Total)
		}
		kn.Recoverable(erased)
	}
}

// midRank returns the midpoint of the C(total, scanK) rank space. Both
// scan benchmarks start there: a window at rank 0 shares a low-index
// prefix across every pattern, which is unrepresentatively cheap for the
// full-reset decoder, while mid-space patterns have the spread of the
// scan's steady state.
func midRank(g *graph.Graph) int64 {
	total, ok := combin.BinomialInt64(g.Total, scanK)
	if !ok {
		return 0
	}
	return total / 2
}

// benchDecoderLexScan replicates the pre-kernel ScanRangeCtx inner loop:
// lexicographic enumeration, one full Decoder evaluation per pattern.
func benchDecoderLexScan(b *testing.B, g *graph.Graph) {
	d := decode.New(g)
	idx := make([]int, scanK)
	combin.Unrank(idx, g.Total, midRank(g))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx[0] < g.Data {
			d.Recoverable(idx)
		}
		combin.Next(idx, g.Total)
	}
}

// benchKernelGrayScan is the scalar kernel scan's inner loop: one
// revolving-door swap plus one incremental Eval per pattern.
func benchKernelGrayScan(b *testing.B, g *graph.Graph) {
	kn := decode.NewKernel(decode.NewCSR(g))
	idx := make([]int, scanK)
	combin.GrayUnrank(idx, g.Total, midRank(g))
	for _, v := range idx {
		kn.EraseOne(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.Eval()
		out, in, ok := combin.GrayNext(idx, g.Total)
		if ok {
			kn.Swap(out, in)
			continue
		}
		// Rank space exhausted (a long -benchtime can walk past the last
		// C(96,5) combination): wrap to rank 0.
		for _, v := range idx {
			kn.RestoreOne(v)
		}
		combin.GrayUnrank(idx, g.Total, 0)
		for _, v := range idx {
			kn.EraseOne(v)
		}
	}
}

// scanRangePatterns is the per-op pattern count of the end-to-end scan
// benchmarks.
const scanRangePatterns = 1 << 17

// benchDecoderScanRange replicates the pre-kernel sim.ScanRangeCtx end to
// end — lexicographic Unrank/Next enumeration, a full Decoder evaluation
// per pattern behind the all-check prune, modulo-based cancellation checks
// every 8192 patterns, and the same metrics flushes — over the same
// mid-space window benchScanRange measures. This is the "before" of the
// report's scan_speedup and sliced_scan_speedup.
func benchDecoderScanRange(b *testing.B, g *graph.Graph) {
	ctx := context.Background()
	reg := sim.Metrics()
	tested := reg.Counter(sim.MetricCombinationsTested)
	found := reg.Counter(sim.MetricFailuresFound)
	d := decode.New(g)
	idx := make([]int, scanK)
	lo := midRank(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combin.Unrank(idx, g.Total, lo)
		var nTested, nFound, lastT, lastF int64
		for r := lo; r < lo+scanRangePatterns; r++ {
			if (r-lo)%8192 == 0 {
				if ctx.Err() != nil {
					b.Fatal(ctx.Err())
				}
				tested.Add(nTested - lastT)
				found.Add(nFound - lastF)
				lastT, lastF = nTested, nFound
			}
			nTested++
			if idx[0] < g.Data && !d.Recoverable(idx) {
				nFound++
			}
			combin.Next(idx, g.Total)
		}
		tested.Add(nTested - lastT)
		found.Add(nFound - lastF)
	}
}

// benchScanRange measures scalarScanRange end to end — enumeration,
// kernel, cancellation checks, metrics flushes — over a mid-space rank
// window (see midRank). This is the "before" of sliced_vs_scalar_scan.
func benchScanRange(b *testing.B, g *graph.Graph) {
	ctx := context.Background()
	lo := midRank(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalarScanRange(ctx, g, scanK, lo, lo+scanRangePatterns, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// scalarScanRange replicates the scalar sim.ScanRangeCtx that preceded the
// bit-sliced scan: revolving-door enumeration advancing the incremental
// peeling kernel by one two-node swap per pattern, countdown cancellation
// checks and metrics flushes every 8192 patterns, and lex-smallest
// failure recording.
func scalarScanRange(ctx context.Context, g *graph.Graph, k int, lo, hi int64, maxFailures int) (sim.RangeResult, error) {
	reg := sim.Metrics()
	tested := reg.Counter(sim.MetricCombinationsTested)
	found := reg.Counter(sim.MetricFailuresFound)
	kn := decode.NewKernel(decode.NewCSR(g))
	idx := make([]int, k)
	combin.GrayUnrank(idx, g.Total, lo)
	for _, v := range idx {
		kn.EraseOne(v)
	}
	var res sim.RangeResult
	var lastT, lastF int64
	untilCheck := 0
	for r := lo; r < hi; r++ {
		if untilCheck == 0 {
			if err := ctx.Err(); err != nil {
				return sim.RangeResult{}, err
			}
			tested.Add(res.Tested - lastT)
			found.Add(res.FailureCount - lastF)
			lastT, lastF = res.Tested, res.FailureCount
			untilCheck = 8192
		}
		untilCheck--
		res.Tested++
		if !kn.Eval() {
			res.FailureCount++
			res.Failures = recordFailure(res.Failures, idx, maxFailures)
		}
		if r+1 < hi {
			out, in, _ := combin.GrayNext(idx, g.Total)
			kn.Swap(out, in)
		}
	}
	tested.Add(res.Tested - lastT)
	found.Add(res.FailureCount - lastF)
	return res, nil
}

// recordFailure keeps fs as the lexicographically smallest failing sets
// seen so far, ascending, capped at maxFailures (the scan's witness rule).
func recordFailure(fs [][]int, idx []int, maxFailures int) [][]int {
	pos, _ := slices.BinarySearchFunc(fs, idx, slices.Compare)
	if pos >= maxFailures {
		return fs
	}
	fs = slices.Insert(fs, pos, slices.Clone(idx))
	return fs[:min(len(fs), maxFailures)]
}

// benchSlicedScanRange measures sim.ScanRangeCtx, the bit-sliced scan, end
// to end — revolving-door run decomposition, incremental suffix
// certificate, 64-lane batched evaluation of unresolved lanes — over the
// same mid-space rank window benchScanRange measures.
func benchSlicedScanRange(b *testing.B, g *graph.Graph) {
	ctx := context.Background()
	lo := midRank(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ScanRangeCtx(ctx, g, scanK, lo, lo+scanRangePatterns, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSlicedEvalWord is the steady-state sliced fixpoint the -check
// alloc gate guards: one word of 64 distinct k=5 patterns (a shared
// 4-node suffix plus a sweeping smallest element — the scan's actual
// word shape) per op.
func benchSlicedEvalWord(b *testing.B, g *graph.Graph) {
	sk := decode.NewSlicedKernel(decode.NewCSR(g))
	suffix := []int{70, 75, 80, 85}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Reset()
		sk.SetActive(^uint64(0))
		for _, v := range suffix {
			sk.Erase(v, ^uint64(0))
		}
		for lane := 0; lane < decode.Lanes; lane++ {
			sk.Erase(lane, 1<<uint(lane))
		}
		if sk.Eval() == 0 {
			b.Fatal("benchmark word unexpectedly unrecoverable in every lane")
		}
	}
}

// defectScanSubsets is the candidate-subset count of one full data-level
// scan to defectScanMaxSize: sum of C(data, s) for s = 2..maxSize.
func defectScanSubsets(g *graph.Graph) int64 {
	var total int64
	for s := 2; s <= defectScanMaxSize; s++ {
		n, ok := combin.BinomialInt64(g.Data, s)
		if !ok {
			return 1
		}
		total += n
	}
	return total
}

// benchDefectReferenceScan is the pre-kernel defect scan: lexicographic
// enumeration, one count map per subset.
func benchDefectReferenceScan(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defect.ReferenceScan(g, defectScanMaxSize)
	}
}

// benchDefectKernelScan is the production defect scan end to end: table
// build, sharded revolving-door kernels, minimality filter.
func benchDefectKernelScan(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defect.ScanDataLevel(g, defectScanMaxSize)
	}
}

// benchDefectKernelLoop is the steady-state inner loop the -check alloc
// gate guards: a prebuilt Table and Kernel driven one revolving-door swap
// plus one Closed read per subset.
func benchDefectKernelLoop(b *testing.B, g *graph.Graph) {
	t := defect.NewDataTable(g)
	kn := defect.NewKernel(t)
	idx := make([]int, 3)
	combin.First(idx, t.LeftCount)
	for _, l := range idx {
		kn.Add(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.Closed()
		out, in, ok := combin.GrayNext(idx, t.LeftCount)
		if ok {
			kn.Swap(out, in)
			continue
		}
		// Subset space exhausted: wrap to the first combination.
		for _, l := range idx {
			kn.Remove(l)
		}
		combin.First(idx, t.LeftCount)
		for _, l := range idx {
			kn.Add(l)
		}
	}
}
