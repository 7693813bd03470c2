package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tornado"
	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/device"
	"tornado/internal/obs"
	"tornado/internal/repairbw"
	"tornado/internal/serve"
)

// The serve workloads share one store shape and population: the 96-node
// graph with 4 KiB blocks and 256 objects of 256 KiB, 8× the default 8 MiB
// stripe cache, behind a serve.Service with default settings.
const (
	blockSize    = 4 << 10
	popObjects   = 256
	objectSize   = 256 << 10
	clients      = 2
	readFraction = 0.7
	zipfS        = 1.1
	// Puts write into slotsPerClient names per client, each new version
	// replacing the last, so the store holds at most 32 put objects (8 MiB,
	// 1/8 of the population) and scrub and rebuild cost stay flat. Any
	// small count would do; gets read only the population.
	slotsPerClient = 16
	setupReps      = 15

	// churnEvery ops, churnDevices seeded devices are failed and replaced
	// and a repair scrub runs until a pass leaves no block missing. At real
	// archival failure rates almost no request meets a rebuild, and a run
	// would see no failure at all, so the workload compresses time and fixes
	// instead the share of operations that overlap a rebuild at about 10%:
	// far above the 1% tail that the p99s read, so those measure requests
	// that meet a rebuild, and far below the 50% that p50 reads. A 3-device
	// rebuild overlaps about 250 operations (op rate and rebuild are both
	// CPU-bound, so the count holds across host speeds); 250 / 0.10 = 2500.
	// Each run records the measured share in its environment line.
	churnEvery   = 2500
	churnDevices = 3

	// bitFlipRate is BENCH_serve's at-rest flip rate, per backend read.
	bitFlipRate = 1e-3

	// minTypeSamples operations of each type put at least ten samples
	// beyond the reported p99.
	minTypeSamples = 1000
	tenant         = "bench"
)

// fillPayload writes the deterministic payload named by id into b.
func fillPayload(b []byte, id uint64) {
	src := rand.NewPCG(id, 0x5eed)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], src.Uint64())
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], src.Uint64())
		copy(b[i:], w[:])
	}
}

// zipfPicker draws object indices with P(rank k) ∝ 1/(k+1)^s, ranks mapped
// onto objects by a seeded permutation so each seed has its own hot set.
type zipfPicker struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, rng *rand.Rand) *zipfPicker {
	z := &zipfPicker{cdf: make([]float64, n), perm: rng.Perm(n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipfPicker) pick(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	return z.perm[min(k, len(z.perm)-1)]
}

// serveEnv is one built store with its service, population and steward.
type serveEnv struct {
	r *run
	// churn selects serve-churn: Zipf reads, periodic device failure and
	// rebuild, and a read-back of every object after the run. Otherwise the
	// workload is serve-bitrot: uniform reads, at-rest bit flips through
	// chaos.Wrap and a repair scrub running back to back.
	churn bool
	devs  device.Array
	shim  *timingBackend // nil when untraced
	store *archive.Store
	svc   *serve.Service
	pop   [][]byte // population payloads, regenerated from the seed

	ops       atomic.Int64 // operations completed, drives churn
	rebuildNo atomic.Int64 // odd while a churn event is failing and rebuilding devices
	phases    uint64       // traffic phases started; seeds the client streams
	trigger   chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
	quarMax   atomic.Int64
	silent    atomic.Int64 // successful gets that returned wrong bytes
	quarGauge *obs.Gauge

	mu         sync.Mutex
	retired    []string        // overwritten put versions awaiting delete
	rebuilds   []time.Duration // per churn event, replacement → converged pass
	lostBytes  int64           // bytes destroyed by device failures
	unconverge int             // churn events that did not converge
	slots      [clients][slotsPerClient]putRec
}

type putRec struct {
	name string
	id   uint64
}

func popName(i int) string { return fmt.Sprintf("pop-%03d", i) }

// runServe builds the store setupReps times (set-up), then drives the
// closed loop of two clients for the run and reports latency, goodput and
// repair figures. A traced run splits the time into an untraced half, for
// the overhead ratio, and a traced half that gives the per-layer numbers.
func runServe(r *run, churn bool) error {
	g, _, err := tornado.Generate(tornado.DefaultParams(), splitmix(r.seed, 0))
	if err != nil {
		return err
	}
	pop := make([][]byte, popObjects)
	for i := range pop {
		pop[i] = make([]byte, objectSize)
		fillPayload(pop[i], splitmix(r.seed, uint64(1000+i)))
	}

	r.rec.setOn(false)
	var env *serveEnv
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		env = nil
		freeMemory()
		start := time.Now()
		env, err = newServeEnv(r, churn, g, pop)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
	}
	r.endToEnd("setup_s", median(seconds(setups)), "s")
	r.samples["setup_builds"] = len(setups)

	go env.steward()
	defer env.close()
	if !r.trace {
		ph := env.phase(r.seconds)
		env.close()
		env.reportEndToEnd(ph)
		env.readback()
		return nil
	}

	plain := env.phase(r.seconds / 2)
	r.rec.setOn(true)
	before := env.snapshot()
	traced := env.phase(r.seconds / 2)
	after := env.snapshot()
	r.rec.setOn(false)
	env.close()
	env.checkPhase(plain)
	env.reportDataPath(plain)
	env.reportLayers(traced, before, after)
	r.perLayer("trace.overhead_ratio", traced.meanLatency()/plain.meanLatency(), "ratio")
	env.readback()
	return nil
}

func newServeEnv(r *run, churn bool, g *tornado.Graph, pop [][]byte) (*serveEnv, error) {
	e := &serveEnv{
		r: r, churn: churn, pop: pop,
		devs:    device.NewArray(g.Total),
		trigger: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	be := archive.NewArrayBackend(e.devs)
	if !churn {
		be = chaos.Wrap(be, chaos.Config{Seed: splitmix(r.seed, 7), BitFlipRate: bitFlipRate})
	}
	if r.trace {
		e.shim = &timingBackend{inner: be, rec: r.rec}
		be = e.shim
	}
	st, err := archive.NewWithBackend(g, be, archive.Config{BlockSize: blockSize})
	if err != nil {
		return nil, err
	}
	svc, err := serve.New([]*archive.Store{st}, serve.Config{})
	if err != nil {
		return nil, err
	}
	e.store, e.svc = st, svc
	e.quarGauge = st.Metrics().Gauge("archive.quarantine.nodes")

	// Preload the population with the two clients.
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < popObjects && errs[c] == nil; i += clients {
				_, errs[c] = svc.Put(context.Background(), tenant, popName(i), bytes.NewReader(pop[i]))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return e, nil
}

// phaseStats is what one traffic phase measured.
type phaseStats struct {
	wall             time.Duration
	getLat, putLat   []time.Duration
	getFail, putFail int
	bytesOK          int64
	rebuilds         []time.Duration
	lostBytes        int64
	repairBytes      int64
	getSelf, putSelf []time.Duration // traced: op span minus backend time
	getReads         int64           // traced: backend reads made by gets
	overlapped       int             // operations that overlapped a churn rebuild
	allocBytes       uint64
	gcCycles         uint32
}

func (p phaseStats) ops() int { return len(p.getLat) + len(p.putLat) + p.getFail + p.putFail }

func (p phaseStats) meanLatency() float64 {
	var sum time.Duration
	for _, d := range p.getLat {
		sum += d
	}
	for _, d := range p.putLat {
		sum += d
	}
	if n := len(p.getLat) + len(p.putLat); n > 0 {
		return sum.Seconds() / float64(n)
	}
	return math.NaN()
}

// phase runs the closed loop for d, and on until each operation type has
// minTypeSamples samples (bounded at 4×d).
func (e *serveEnv) phase(d time.Duration) phaseStats {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	e.mu.Lock()
	rebuilds0, lost0 := len(e.rebuilds), e.lostBytes
	e.mu.Unlock()
	repair0 := e.store.RepairMeter().Total().Bytes()
	e.phases++

	var stop atomic.Bool
	var gets, puts atomic.Int64
	per := make([]phaseStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.client(c, &per[c], &stop, &gets, &puts)
		}(c)
	}
	for {
		time.Sleep(5 * time.Millisecond)
		el := time.Since(start)
		if el >= 4*d || (el >= d && gets.Load() >= minTypeSamples && puts.Load() >= minTypeSamples) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	var ps phaseStats
	ps.wall = time.Since(start)
	for _, p := range per {
		ps.getLat = append(ps.getLat, p.getLat...)
		ps.putLat = append(ps.putLat, p.putLat...)
		ps.getSelf = append(ps.getSelf, p.getSelf...)
		ps.putSelf = append(ps.putSelf, p.putSelf...)
		ps.getFail += p.getFail
		ps.putFail += p.putFail
		ps.bytesOK += p.bytesOK
		ps.getReads += p.getReads
		ps.overlapped += p.overlapped
	}
	runtime.ReadMemStats(&ms1)
	ps.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ps.gcCycles = ms1.NumGC - ms0.NumGC
	e.mu.Lock()
	ps.rebuilds = slices.Clone(e.rebuilds[rebuilds0:])
	ps.lostBytes = e.lostBytes - lost0
	e.mu.Unlock()
	ps.repairBytes = e.store.RepairMeter().Total().Bytes() - repair0
	e.r.attempted += int64(ps.ops())
	e.r.failed += int64(ps.getFail + ps.putFail)
	return ps
}

// client is one closed-loop client: it sends its next request only after
// the previous one completed. Every successful get is compared byte for
// byte with the payload regenerated from the seed.
func (e *serveEnv) client(c int, ps *phaseStats, stop *atomic.Bool, gets, puts *atomic.Int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(splitmix(e.r.seed, uint64(10+c)), e.phases))
	var zipf *zipfPicker
	if e.churn {
		zipf = newZipf(popObjects, zipfS, rand.New(rand.NewPCG(splitmix(e.r.seed, 20), 0)))
	}
	var got bytes.Buffer
	got.Grow(objectSize)
	putBuf := make([]byte, objectSize)
	for !stop.Load() {
		rebuild0 := e.rebuildNo.Load()
		if rng.Float64() < readFraction {
			i := rng.IntN(popObjects)
			if zipf != nil {
				i = zipf.pick(rng)
			}
			got.Reset()
			t := e.r.rec.begin("serve.get", nil)
			start := time.Now()
			_, err := e.svc.Get(t.with(ctx), tenant, popName(i), &got)
			lat := time.Since(start)
			sp := t.end()
			gets.Add(1)
			if err != nil {
				ps.getFail++
			} else {
				ps.getLat = append(ps.getLat, lat)
				ps.bytesOK += int64(got.Len())
				if !bytes.Equal(got.Bytes(), e.pop[i]) && e.silent.Add(1) == 1 {
					e.r.violate("silent corruption: get %s returned wrong bytes without an error", popName(i))
				}
			}
			if t != nil {
				ps.getSelf = append(ps.getSelf, time.Duration(sp.Self))
				t.mu.Lock()
				ps.getReads += t.reads
				t.mu.Unlock()
			}
		} else {
			slot := rng.IntN(slotsPerClient)
			id := rng.Uint64()
			name := fmt.Sprintf("put-%d-%02d-%016x", c, slot, id)
			fillPayload(putBuf, id)
			t := e.r.rec.begin("serve.put", nil)
			start := time.Now()
			_, err := e.svc.Put(t.with(ctx), tenant, name, bytes.NewReader(putBuf))
			lat := time.Since(start)
			sp := t.end()
			puts.Add(1)
			if err != nil {
				ps.putFail++
			} else {
				ps.putLat = append(ps.putLat, lat)
				ps.bytesOK += objectSize
				e.mu.Lock()
				if old := e.slots[c][slot]; old.name != "" {
					e.retired = append(e.retired, old.name)
				}
				e.slots[c][slot] = putRec{name, id}
				e.mu.Unlock()
			}
			if t != nil {
				ps.putSelf = append(ps.putSelf, time.Duration(sp.Self))
			}
		}
		if rebuild1 := e.rebuildNo.Load(); rebuild0%2 == 1 || rebuild1 != rebuild0 {
			ps.overlapped++
		}
		e.noteQuarantine()
		if e.churn && e.ops.Add(1)%churnEvery == 0 {
			select {
			case e.trigger <- struct{}{}:
			default: // an event is already pending
			}
		}
	}
}

// steward is the store's single maintenance goroutine. It deletes
// overwritten put versions (never while a scrub runs, so a scrub never sees
// a half-deleted object), and runs the churn events or, under bit rot, a
// repair scrub back to back.
func (e *serveEnv) steward() {
	defer close(e.done)
	churnRng := rand.New(rand.NewPCG(splitmix(e.r.seed, 30), 0))
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			e.deleteRetired()
			return
		default:
		}
		e.deleteRetired()
		if !e.churn {
			e.scrub()
			continue
		}
		select {
		case <-e.stop:
		case <-e.trigger:
			e.churnEvent(churnRng)
		case <-tick.C:
		}
	}
}

// close stops the steward and waits until it has exited.
func (e *serveEnv) close() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// noteQuarantine keeps the largest quarantined-node count seen.
func (e *serveEnv) noteQuarantine() {
	q := e.quarGauge.Value()
	for old := e.quarMax.Load(); q > old && !e.quarMax.CompareAndSwap(old, q); old = e.quarMax.Load() {
	}
}

func (e *serveEnv) deleteRetired() {
	e.mu.Lock()
	names := e.retired
	e.retired = nil
	e.mu.Unlock()
	for _, n := range names {
		if err := e.svc.Delete(context.Background(), tenant, n); err != nil {
			e.r.violate("delete of overwritten %s: %v", n, err)
		}
	}
}

// scrub runs one repair pass inside a span and reports whether it left
// no block missing.
func (e *serveEnv) scrub() (converged bool) {
	t := e.r.rec.begin("archive.scrub", nil)
	rep, err := e.store.ScrubCtx(t.with(context.Background()), true)
	t.end()
	e.noteQuarantine()
	if err != nil {
		e.r.note("scrub: %v", err)
		return false
	}
	if rep.Unrecoverable > 0 {
		return false
	}
	for _, h := range rep.Stripes {
		for _, m := range h.Missing {
			if !slices.Contains(h.Repaired, m) {
				return false
			}
		}
	}
	return true
}

// churnEvent fails and replaces churnDevices seeded devices, then scrubs
// until a pass leaves no block missing; the rebuild time runs from the
// replacement to the end of that pass.
func (e *serveEnv) churnEvent(rng *rand.Rand) {
	e.rebuildNo.Add(1)
	defer e.rebuildNo.Add(1)
	frame := int64(e.store.FrameSize())
	var lost int64
	for _, v := range rng.Perm(len(e.devs))[:churnDevices] {
		lost += int64(e.devs[v].Len()) * frame
		e.devs[v].Fail()
		e.devs[v].Replace()
	}
	start := time.Now()
	converged := false
	for pass := 0; pass < 8 && !converged; pass++ {
		converged = e.scrub()
	}
	d := time.Since(start)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lostBytes += lost
	if converged {
		e.rebuilds = append(e.rebuilds, d)
	} else {
		e.unconverge++
	}
}

// percentile is the nearest-rank p-quantile of n = len(lat)+failures
// operations, failures counted beyond any limit. ok is false when the rank
// lands on a failure; beyond is how many samples lie past the rank.
func percentile(lat []time.Duration, failures int, p float64) (v time.Duration, ok bool, beyond int) {
	n := len(lat) + failures
	if n == 0 {
		return 0, false, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = max(rank, 1)
	beyond = n - rank
	if rank > len(lat) {
		return 0, false, beyond
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	return s[rank-1], true, beyond
}

// reportEndToEnd reports the latency of every operation, gets and puts
// together, and checks the phase.
func (e *serveEnv) reportEndToEnd(ps phaseStats) {
	e.r.reportOps(append(slices.Clone(ps.getLat), ps.putLat...), ps.getFail+ps.putFail)
	e.checkPhase(ps)
}

// checkPhase records what the phase held and checks that every churn event
// in it converged.
func (e *serveEnv) checkPhase(ps phaseStats) {
	r := e.r
	r.samples["gets"] = len(ps.getLat) + ps.getFail
	r.samples["puts"] = len(ps.putLat) + ps.putFail
	r.shares["fail_ratio"] = float64(ps.getFail+ps.putFail) / float64(max(ps.ops(), 1))
	if e.churn {
		r.samples["rebuilds"] = len(ps.rebuilds)
		r.samples["ops_overlapping_rebuild"] = ps.overlapped
		r.shares["ops_overlapping_rebuild"] = float64(ps.overlapped) / float64(max(ps.ops(), 1))
		if len(ps.rebuilds) == 0 {
			r.violate("no churn event completed in the run")
		}
		if e.unconverge > 0 {
			r.violate("%d churn events did not converge to no missing block", e.unconverge)
		}
	}
	r.note("%s: %d gets (%d failed), %d puts (%d failed) in %.1fs",
		r.workload, len(ps.getLat)+ps.getFail, ps.getFail, len(ps.putLat)+ps.putFail, ps.putFail, ps.wall.Seconds())
}

// reportDataPath reports, from the untraced phase of a traced run, the
// figures a client of the data path sees beyond the shared op latency:
// get and put latency apart, goodput, rebuild time and repair traffic.
func (e *serveEnv) reportDataPath(ps phaseStats) {
	r := e.r
	for _, q := range []struct {
		name string
		lat  []time.Duration
		fail int
		p    float64
	}{
		{"serve.get_p50_ms", ps.getLat, ps.getFail, 0.50},
		{"serve.get_p99_ms", ps.getLat, ps.getFail, 0.99},
		{"serve.put_p50_ms", ps.putLat, ps.putFail, 0.50},
		{"serve.put_p99_ms", ps.putLat, ps.putFail, 0.99},
	} {
		v, ok, beyond := percentile(q.lat, q.fail, q.p)
		r.samples[q.name+".beyond"] = beyond
		if beyond < 10 {
			r.violate("%s: only %d samples beyond the percentile", q.name, beyond)
		}
		if !ok {
			r.note("%s: failed (the percentile lands on a failed operation: %d of %d failed)", q.name, q.fail, len(q.lat)+q.fail)
			continue
		}
		r.perLayer(q.name, float64(v)/1e6, "ms")
	}
	r.perLayer("serve.goodput_mb_s", float64(ps.bytesOK)/1e6/ps.wall.Seconds(), "MB/s")
	if e.churn && len(ps.rebuilds) > 0 {
		r.perLayer("archive.rebuild_s", median(seconds(ps.rebuilds)), "s")
		r.perLayer("repairbw.bytes_per_lost_byte", float64(ps.repairBytes)/float64(ps.lostBytes), "B/B")
	}
}

// counters is a snapshot of the program's own counters, taken around the
// traced phase.
type counters struct {
	hits, misses, evictions, overloaded           int64
	readRetries, readRepairs, corrupt, quarEvents int64
	scrubPasses, scrubRepaired, scrubUnrecov      int64
	scrubBytes, readRepairBytes, degradedBytes    int64
}

func (e *serveEnv) snapshot() counters {
	sm, am, meter := e.svc.Metrics(), e.store.Metrics(), e.store.RepairMeter()
	v := func(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }
	return counters{
		hits: v(sm, "serve.cache.hits"), misses: v(sm, "serve.cache.misses"),
		evictions: v(sm, "serve.cache.evictions"), overloaded: v(sm, "serve.overloaded"),
		readRetries: v(am, "archive.read.retries"), readRepairs: v(am, "archive.read_repair.blocks"),
		corrupt: v(am, "archive.detected.corrupt_frames"), quarEvents: v(am, "archive.quarantine.events"),
		scrubPasses: v(am, "archive.scrub.passes"), scrubRepaired: v(am, "archive.scrub.blocks_repaired"),
		scrubUnrecov:    v(am, "archive.scrub.unrecoverable_stripes"),
		scrubBytes:      meter.Totals(repairbw.Scrub).Bytes(),
		readRepairBytes: meter.Totals(repairbw.ReadRepair).Bytes(),
		degradedBytes:   meter.Totals(repairbw.DegradedGet).Bytes(),
	}
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(ds))
}

func (e *serveEnv) reportLayers(ps phaseStats, a, b counters) {
	r := e.r
	gets := len(ps.getLat) + ps.getFail
	if lookups := (b.hits - a.hits) + (b.misses - a.misses); lookups > 0 {
		r.perLayer("serve.cache_hit_ratio", float64(b.hits-a.hits)/float64(lookups), "ratio")
	}
	r.perLayer("serve.cache_evictions", float64(b.evictions-a.evictions), "count")
	r.perLayer("serve.overloaded", float64(b.overloaded-a.overloaded), "count")
	r.perLayer("archive.get_self_ms", meanMs(ps.getSelf), "ms")
	r.perLayer("archive.put_self_ms", meanMs(ps.putSelf), "ms")
	r.perLayer("archive.read_retries", float64(b.readRetries-a.readRetries), "count")
	r.perLayer("archive.read_repair_blocks", float64(b.readRepairs-a.readRepairs), "count")
	r.perLayer("backend.reads_per_get", float64(ps.getReads)/float64(max(gets, 1)), "count")
	r.perLayer("archive.detected_corrupt_frames", float64(b.corrupt-a.corrupt), "count")
	r.perLayer("archive.quarantine_events", float64(b.quarEvents-a.quarEvents), "count")
	r.perLayer("archive.quarantined_nodes_max", float64(e.quarMax.Load()), "count")
	if passes := r.rec.named("archive.scrub"); len(passes) > 0 {
		ds := make([]time.Duration, len(passes))
		for i, s := range passes {
			ds[i] = s.dur()
		}
		r.perLayer("archive.scrub_pass_s", median(seconds(ds)), "s")
	}
	r.perLayer("archive.scrub_passes", float64(b.scrubPasses-a.scrubPasses), "count")
	r.perLayer("archive.scrub_blocks_repaired", float64(b.scrubRepaired-a.scrubRepaired), "count")
	r.perLayer("archive.scrub_unrecoverable_stripes", float64(b.scrubUnrecov-a.scrubUnrecov), "count")
	r.perLayer("repairbw.scrub_bytes", float64(b.scrubBytes-a.scrubBytes), "B")
	r.perLayer("repairbw.read_repair_bytes", float64(b.readRepairBytes-a.readRepairBytes), "B")
	r.perLayer("repairbw.degraded_get_bytes", float64(b.degradedBytes-a.degradedBytes), "B")
	sh := e.shim
	r.perLayer("backend.reads", float64(sh.reads.Load()), "count")
	r.perLayer("backend.read_bytes", float64(sh.readBytes.Load()), "B")
	r.perLayer("backend.read_busy_s", float64(sh.readNs.Load())/1e9, "s")
	r.perLayer("backend.writes", float64(sh.writes.Load()), "count")
	r.perLayer("backend.write_bytes", float64(sh.writeBytes.Load()), "B")
	r.perLayer("backend.write_busy_s", float64(sh.writeNs.Load())/1e9, "s")
	r.perLayer("backend.errors", float64(sh.errors.Load()), "count")
	r.perLayer("go.alloc_bytes_per_op", float64(ps.allocBytes)/float64(max(ps.ops(), 1)), "B/op")
	r.perLayer("go.gc_cycles", float64(ps.gcCycles), "count")
}

// readback runs after the steward has stopped. It reports how many gets
// returned wrong bytes, and on a workload whose every churn event
// converged, every object — the population and the last version of every
// put slot — must read back exactly.
func (e *serveEnv) readback() {
	if n := e.silent.Load(); n > 0 {
		e.r.violate("silent corruption: %d successful gets in all returned wrong bytes", n)
	}
	if !e.churn {
		return
	}
	ctx := context.Background()
	var got bytes.Buffer
	bad, first := 0, ""
	check := func(name string, want []byte) {
		got.Reset()
		_, err := e.svc.Get(ctx, tenant, name, &got)
		if err != nil || !bytes.Equal(got.Bytes(), want) {
			if bad++; bad == 1 {
				first = fmt.Sprintf("%s (err %v)", name, err)
			}
		}
	}
	for i, p := range e.pop {
		check(popName(i), p)
	}
	want := make([]byte, objectSize)
	for c := range e.slots {
		for _, s := range e.slots[c] {
			if s.name != "" {
				fillPayload(want, s.id)
				check(s.name, want)
			}
		}
	}
	if bad > 0 {
		e.r.violate("read-back: %d objects did not read back exactly, first %s", bad, first)
	}
}
