// Command perfbench is the repository benchmark: one program that runs a
// named workload against the certification pipeline or the archive data
// path, checks the outputs, and prints every metric by name and unit.
//
//	perfbench --workload exhaustive-96 --seed 1 --seconds 20 --trace 0
//
// It drives the program only through public functions (the tornado facade,
// core, adjust, sim, decode, serve.Service, archive.Store/Backend, device,
// chaos, repairbw.Meter) and times each layer from outside, around the
// calls into it. The seed is an argument; the program receives only the
// inputs generated from it.
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 it carries the per-layer metrics, measured from
// spans the benchmark records around those calls (see trace.go). Every
// run also writes a full record (environment, sample counts, metrics) to
// .bench_build/results/ and, when traced, its spans to .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to the function that runs it.
// README.md says why each one was chosen.
var workloads = map[string]func(*run) error{
	"exhaustive-96": runExhaustive96,
	"certify-100k":  runCertify100k,
	"serve-churn":   func(r *run) error { return runServe(r, true) },
	"serve-bitrot":  func(r *run) error { return runServe(r, false) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	rec      *recorder // span recorder; nil when untraced

	attempted, failed int64
	e2e               map[string]metric  // end-to-end metrics (untraced runs)
	layer             map[string]metric  // per-layer metrics (traced runs)
	samples           map[string]int     // sample count behind each reported figure
	shares            map[string]float64 // measured shares that shape the figures

	mu           sync.Mutex // guards the check failures and notes, appended from clients
	failedChecks int        // output-check failures
	violations   []string   // the first maxViolations of them
	notes        []string   // measured facts worth a line of their own
}

// endToEnd records an end-to-end metric; traced runs drop them (their
// numbers carry tracing overhead).
func (r *run) endToEnd(name string, v float64, unit string) {
	if !r.trace && r.measurable(name, v) {
		r.e2e[name] = metric{v, unit}
	}
}

// perLayer records a per-layer metric; untraced runs drop them.
func (r *run) perLayer(name string, v float64, unit string) {
	if r.trace && r.measurable(name, v) {
		r.layer[name] = metric{v, unit}
	}
}

// measurable rejects NaN and infinities (a ratio over a phase with no
// successful operation), which JSON cannot carry; the run notes them.
func (r *run) measurable(name string, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s: not measurable in this run (%v)", name, v)
		return false
	}
	return true
}

// maxViolations bounds the output-check failures kept verbatim; a broken
// program can fail the same check thousands of times.
const maxViolations = 20

// violate records an output-check failure: the run reports correct=false
// and exits non-zero.
func (r *run) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failedChecks++; r.failedChecks <= maxViolations {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s} --seed N --seconds S (>=1) --trace {0,1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		samples:  map[string]int{},
		shares:   map[string]float64{},
	}
	if r.trace {
		r.rec = newRecorder()
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	r.endToEnd("peak_rss_mb", peakRSSMB(), "MB")
	if r.trace {
		r.fillLayers()
	} else {
		r.checkEndToEnd()
	}

	res := result{
		Correct:   r.failedChecks == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if r.trace {
		res.Metrics = r.layer
	}
	env := environment(r)
	if err := r.writeRecord(env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, v := range r.violations {
		fmt.Println("CHECK FAILED:", v)
	}
	if more := r.failedChecks - len(r.violations); more > 0 {
		fmt.Printf("CHECK FAILED: %d more\n", more)
	}
	envLine, _ := json.Marshal(env)
	fmt.Println("env:", string(envLine))
	last, _ := json.Marshal(res)
	fmt.Println(string(last))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEndMetrics lists every end-to-end metric with its unit, in the order
// BENCHMARK.json lists them. Every workload reports each of them: set-up
// time, peak memory, and the latency of the workload's own operation (one
// graph certified, one Certify call, one get or put).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"op_mean_ms", "ms"}, {"op_p50_ms", "ms"}, {"peak_rss_mb", "MB"},
}

// checkEndToEnd fails the run unless it measured every end-to-end metric,
// each above zero: a run that cannot report one has nothing to compare.
func (r *run) checkEndToEnd() {
	for _, m := range endToEndMetrics {
		if v, ok := r.e2e[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
			r.violate("end-to-end metric %s not measured (got %+v)", m.name, v)
		}
	}
}

// reportOps records the latency metrics of the workload's operations: the
// mean over the successful ones, and the nearest-rank median with failed
// operations counted beyond any limit. A median that lands on a failure has
// no value, so the run fails the end-to-end check.
func (r *run) reportOps(lat []time.Duration, failures int) {
	r.samples["ops"] = len(lat) + failures
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	if len(lat) > 0 {
		r.endToEnd("op_mean_ms", float64(sum)/1e6/float64(len(lat)), "ms")
	}
	if v, ok, _ := percentile(lat, failures, 0.5); ok {
		r.endToEnd("op_p50_ms", float64(v)/1e6, "ms")
	} else {
		r.note("op_p50_ms: failed (lands on a failed operation: %d of %d failed)", failures, len(lat)+failures)
	}
}

// fillLayers reports every per-layer metric of the benchmark on every
// workload: a layer the workload does not exercise did no work, and reads 0.
func (r *run) fillLayers() {
	for _, m := range perLayerMetrics {
		if _, ok := r.layer[m.name]; !ok {
			r.layer[m.name] = metric{0, m.unit}
		}
	}
}

// perLayerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json lists them.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.generate_s", "s"}, {"core.gen_attempts", "count"}, {"core.closed_pairs", "count"},
	{"adjust.improve_s", "s"}, {"adjust.rounds", "count"}, {"adjust.rewires", "count"},
	{"decode.csr_build_s", "s"}, {"decode.csr_alloc_mb", "MB"},
	{"sim.scan_s.k1", "s"}, {"sim.scan_s.k2", "s"}, {"sim.scan_s.k3", "s"}, {"sim.scan_s.k4", "s"}, {"sim.scan_s.k5", "s"},
	{"sim.patterns_tested", "count"}, {"sim.ns_per_pattern", "ns"}, {"sim.failures.k5", "count"},
	{"sim.trials", "count"}, {"sim.screened", "count"}, {"sim.residue", "count"}, {"sim.screen_ratio", "ratio"},
	{"sim.rounds", "count"}, {"sim.ci_half_width", "ratio"}, {"sim.block_s", "s"},
	{"serve.get_p50_ms", "ms"}, {"serve.get_p99_ms", "ms"}, {"serve.put_p50_ms", "ms"}, {"serve.put_p99_ms", "ms"},
	{"serve.goodput_mb_s", "MB/s"}, {"archive.rebuild_s", "s"}, {"repairbw.bytes_per_lost_byte", "B/B"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.cache_evictions", "count"}, {"serve.overloaded", "count"},
	{"archive.get_self_ms", "ms"}, {"archive.put_self_ms", "ms"},
	{"archive.read_retries", "count"}, {"archive.read_repair_blocks", "count"}, {"backend.reads_per_get", "count"},
	{"archive.detected_corrupt_frames", "count"}, {"archive.quarantine_events", "count"}, {"archive.quarantined_nodes_max", "count"},
	{"archive.scrub_pass_s", "s"}, {"archive.scrub_passes", "count"}, {"archive.scrub_blocks_repaired", "count"},
	{"archive.scrub_unrecoverable_stripes", "count"},
	{"repairbw.scrub_bytes", "B"}, {"repairbw.read_repair_bytes", "B"}, {"repairbw.degraded_get_bytes", "B"},
	{"backend.reads", "count"}, {"backend.read_bytes", "B"}, {"backend.read_busy_s", "s"},
	{"backend.writes", "count"}, {"backend.write_bytes", "B"}, {"backend.write_busy_s", "s"}, {"backend.errors", "count"},
	{"go.alloc_bytes_per_op", "B/op"}, {"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// peakRSSMB is the process's peak resident set (VmHWM, in KiB) in MB. It
// is read from /proc/self/status rather than getrusage: ru_maxrss survives
// execve, so it would report the launcher's resident set when that is the
// larger one (a Python launcher's is about 14 MB, above exhaustive-96's own
// 10 MB), while VmHWM belongs to this program's address space alone.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kib); err == nil {
				return kib * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

// environment is recorded with every result: the numbers mean little
// without the machine and toolchain they came from.
func environment(r *run) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"samples":    r.samples,
		"shares":     r.shares,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord keeps the full result (environment, sample counts, notes,
// violations) under .bench_build/results/ in the working directory, and the
// trace's spans under .bench_build/traces/ when the run was traced.
func (r *run) writeRecord(env map[string]any, res result) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, map[bool]int{false: 0, true: 1}[r.trace])
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{"env": env, "result": res, "notes": r.notes, "violations": r.violations}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if r.rec == nil {
		return nil
	}
	tdir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return r.rec.writeJSONL(filepath.Join(tdir, base+".jsonl"))
}
