package sim

import (
	"context"
	"fmt"
	"math/bits"

	"tornado/internal/combin"
	"tornado/internal/decode"
	"tornado/internal/graph"
)

// This file is the exhaustive scan driver behind ScanRangeCtx: it runs
// decode.SlicedKernel over 64 erasure patterns per machine word, visiting
// ranks in revolving-door order, so every downstream guarantee (campaign
// sharding, cached shards, lex-smallest witness merging, worker-count
// independence) rests on a pure function of the rank range.
//
// The word layout falls out of Algorithm R itself (Knuth 7.2.1.3): the
// enumeration's "easy step" moves only the smallest element idx[0] —
// ascending toward idx[1] when k is odd, descending toward 0 when k is
// even — and the conditions are closed-form, so a maximal run of
// consecutive ranks sharing the suffix idx[1:] is computable from the
// current state without stepping. Runs average C(n,k)/C(n-1,k-1) = n/k
// patterns (≈19 for n=96, k=5), so the scan pays one GrayNext and one
// two-node suffix delta per run instead of per pattern, then lays the
// run's sweeping element c0 across word lanes.
//
// Most lanes never reach the peeling fixpoint. The scanner maintains,
// incrementally across suffix deltas, the rule-1 certificate structure
// of the shared suffix S = idx[1:] (m, zeroCheck, oneCheck, goodData
// below), from which a per-run node mask of provably recoverable
// sweeping elements follows in a handful of word operations
// (runCertificate); each word of the run then extracts its window of
// that mask in O(1). Only the lanes the certificate cannot prove are
// enqueued — with their full patterns — into a 64-lane SlicedKernel
// batch that flushes when full, so the expensive word-wide fixpoint
// always runs at full occupancy. The pruning soundness argument is
// spelled out at runCertificate and in DESIGN.md "Decoder kernels".

// slicedScanner is the per-range state of a sliced scan. Not safe for
// concurrent use; ExhaustiveKCtx builds one per worker.
type slicedScanner struct {
	csr  *decode.CSR
	data int32

	// Incremental certificate structure of the shared suffix S (all node
	// bitmasks are Words-long, over node IDs):
	//
	//   sufMask   — members of S
	//   m[q]      — |S ∩ L(q)| for each check q
	//   zeroCheck — checks q ∉ S with m[q] == 0: erasing exactly one of
	//               their left neighbors leaves them rule-1 rescuers
	//   oneCheck  — checks q ∉ S with m[q] == 1: each is a valid rule-1
	//               rescuer of its single missing neighbor right now
	m         []int32
	sufMask   []uint64
	zeroCheck []uint64
	oneCheck  []uint64

	// relevant[q] marks checks with at least one data left-neighbor —
	// the only checks whose m/zeroCheck/oneCheck state the certificate
	// ever consults. Suffix updates skip irrelevant parents wholesale
	// (their counters go stale, but stale state that is never read is
	// free), and only relevant checks ever hold zeroCheck/oneCheck
	// bits. dataKids[q] is L(q) restricted to data nodes.
	relevant []bool
	dataKids [][]int32

	// goodRun marks sweeping elements provably recoverable alongside a
	// certified suffix: check bits always set (an erased check never
	// loses data by itself), and a data bit when gcount > 0 — some
	// parent is a zeroCheck (rescues c at round 1) or a oneCheck
	// (missing {v_p, c} at round 1; v_p is rescued by its own disjoint
	// oneCheck rescuer in every lane outside badNodes, so the parent
	// fires at round 2). gcount[c] counts c's parents in zeroCheck ∪
	// oneCheck; membership there only flips when m crosses 1↔2 or the
	// check itself enters/leaves S — never on the busy 0↔1 boundary —
	// so the incremental cascades stay rare.
	gcount   []int32
	goodRun  []uint64
	badNodes []uint64 // per-run scratch: sweeping elements that break the certificate

	// runCertificate scratch: per-suffix-member masks of certificate-
	// breaking sweeping elements (flat, stride Words), and which data
	// members had no round-1 rescuer and needed the two-round fallback.
	bv        []uint64
	deficient []bool

	cur     []int // current suffix, ascending (len k-1)
	pattern []int // scratch full pattern (len k)

	// Batch of unproven lanes, accumulated across runs so the word-wide
	// fixpoint always evaluates at full occupancy. batchPat[slot] holds
	// the lane's full pattern for failure recording at flush time.
	sk       *decode.SlicedKernel
	batchPat [][]int
	batchLen int

	// onVerdict, when set, observes every pattern's rank and verdict —
	// including certificate-pruned lanes that never reach the fixpoint —
	// so tests can re-check pruning soundness against a reference decoder.
	// The idx slice is reused; don't retain. Forces per-word batch
	// flushes so verdicts arrive in rank order.
	onVerdict func(rank int64, idx []int, recoverable bool)
}

func newSlicedScanner(g *graph.Graph, k int, hook func(int64, []int, bool)) *slicedScanner {
	csr := decode.NewCSR(g)
	s := &slicedScanner{
		csr:       csr,
		data:      csr.Data,
		m:         make([]int32, g.Total),
		sufMask:   make([]uint64, csr.Words),
		zeroCheck: make([]uint64, csr.Words),
		oneCheck:  make([]uint64, csr.Words),
		gcount:    make([]int32, csr.Data),
		goodRun:   make([]uint64, csr.Words),
		badNodes:  make([]uint64, csr.Words),
		bv:        make([]uint64, max(k-1, 1)*csr.Words),
		deficient: make([]bool, max(k-1, 1)),
		cur:       make([]int, k-1),
		pattern:   make([]int, k),
		sk:        decode.NewSlicedKernel(csr),
		batchPat:  make([][]int, decode.Lanes),
		relevant:  make([]bool, g.Total),
		dataKids:  make([][]int32, g.Total),
		onVerdict: hook,
	}
	for i := range s.batchPat {
		s.batchPat[i] = make([]int, k)
	}
	// Empty suffix: every relevant check is a zeroCheck, every check
	// bit of goodRun is permanently good.
	for q := csr.Data; q < int32(g.Total); q++ {
		s.goodRun[q>>6] |= 1 << (uint(q) & 63)
		var kids []int32
		for _, l := range csr.LeftNeighbors(q) {
			if l < csr.Data {
				kids = append(kids, l)
			}
		}
		s.dataKids[q] = kids
		if len(kids) > 0 {
			s.relevant[q] = true
			s.zeroCheck[q>>6] |= 1 << (uint(q) & 63)
			s.goodInc(q)
		}
	}
	return s
}

// goodInc credits check q (entering zeroCheck ∪ oneCheck) to its data
// children.
func (s *slicedScanner) goodInc(q int32) {
	for _, l := range s.dataKids[q] {
		s.gcount[l]++
		if s.gcount[l] == 1 {
			s.goodRun[l>>6] |= 1 << (uint(l) & 63)
		}
	}
}

// goodDec removes check q (leaving zeroCheck ∪ oneCheck) from its data
// children.
func (s *slicedScanner) goodDec(q int32) {
	for _, l := range s.dataKids[q] {
		s.gcount[l]--
		if s.gcount[l] == 0 {
			s.goodRun[l>>6] &^= 1 << (uint(l) & 63)
		}
	}
}

// eraseSuffix adds v to the shared suffix, keeping every certificate
// mask exact. Erased checks are excluded from zeroCheck/oneCheck; their
// m counts keep accumulating so restoreSuffix can reclassify them.
func (s *slicedScanner) eraseSuffix(v int) {
	bit := uint64(1) << (uint(v) & 63)
	s.sufMask[v>>6] |= bit
	if int32(v) >= s.data {
		if (s.zeroCheck[v>>6]|s.oneCheck[v>>6])&bit != 0 {
			s.goodDec(int32(v))
		}
		s.zeroCheck[v>>6] &^= bit
		s.oneCheck[v>>6] &^= bit
	}
	for _, p := range s.csr.Parents(int32(v)) {
		if !s.relevant[p] {
			continue
		}
		old := s.m[p]
		s.m[p] = old + 1
		if s.sufMask[p>>6]&(1<<(uint(p)&63)) != 0 {
			continue
		}
		if old == 0 {
			s.zeroCheck[p>>6] &^= 1 << (uint(p) & 63)
			s.oneCheck[p>>6] |= 1 << (uint(p) & 63)
		} else if old == 1 {
			s.oneCheck[p>>6] &^= 1 << (uint(p) & 63)
			s.goodDec(p)
		}
	}
}

// restoreSuffix removes v from the shared suffix.
func (s *slicedScanner) restoreSuffix(v int) {
	bit := uint64(1) << (uint(v) & 63)
	s.sufMask[v>>6] &^= bit
	for _, p := range s.csr.Parents(int32(v)) {
		if !s.relevant[p] {
			continue
		}
		old := s.m[p]
		s.m[p] = old - 1
		if s.sufMask[p>>6]&(1<<(uint(p)&63)) != 0 {
			continue
		}
		if old == 1 {
			s.oneCheck[p>>6] &^= 1 << (uint(p) & 63)
			s.zeroCheck[p>>6] |= 1 << (uint(p) & 63)
		} else if old == 2 {
			s.oneCheck[p>>6] |= 1 << (uint(p) & 63)
			s.goodInc(p)
		}
	}
	if int32(v) >= s.data && s.relevant[v] {
		switch s.m[v] {
		case 0:
			s.zeroCheck[v>>6] |= bit
			s.goodInc(int32(v))
		case 1:
			s.oneCheck[v>>6] |= bit
			s.goodInc(int32(v))
		}
	}
}

// resyncSuffix diffs the tracked suffix against idx[1:] (both ascending)
// and applies the erase/restore deltas — at most two nodes per
// revolving-door boundary step.
func (s *slicedScanner) resyncSuffix(idx []int) {
	nw := idx[1:]
	i, j := 0, 0
	for i < len(s.cur) || j < len(nw) {
		switch {
		case j == len(nw) || (i < len(s.cur) && s.cur[i] < nw[j]):
			s.restoreSuffix(s.cur[i])
			i++
		case i == len(s.cur) || nw[j] < s.cur[i]:
			s.eraseSuffix(nw[j])
			j++
		default:
			i++
			j++
		}
	}
	copy(s.cur, nw)
}

func (s *slicedScanner) setPattern(idx []int, c0 int) {
	s.pattern[0] = c0
	copy(s.pattern[1:], idx[1:])
}

// runCertificate decides whether the suffix holds a full certificate
// and, if so, fills s.badNodes with the sweeping elements that break
// it. Returns false when some suffix data node has no provable
// recovery path at all — the run then takes the fixpoint path lane by
// lane.
//
// Soundness. Consider a pattern T = S ∪ {c} (c the lane's sweeping
// element, always < min(S), so c ∉ S). For a suffix data node v, any
// parent q in oneCheck is a valid rule-1 rescuer (m[q] == 1 with v ∈
// S ∩ L(q) forces the one missing neighbor to be v), and stays valid in
// lane c iff c ∉ L(q) ∪ {q}. So v's round-1 rescue fails in lane c only
// when c breaks every oneCheck parent of v — the per-member mask bv[i]
// is that intersection ∩_q (L(q) ∪ {q}). Distinct v's never compete for
// one q (two suffix members under q would make m[q] ≥ 2), so in any
// lane c outside every member's mask, ALL suffix data nodes with
// oneCheck parents are rescued by disjoint checks in the first peeling
// round, independent of order.
//
// A member v with no oneCheck parent (deficient) can still be proven
// via a second round: a parent p with m[p] == 2, p ∉ S, whose other
// missing member u is itself recovered in round 1 — either u is data
// with its own round-1 rescuer (use its mask bv[j]), or u is an erased
// check with no suffix left-neighbors, recomputed by rule 2 when the
// lane leaves L(u) intact. Once u is back, p's missing set is {v} alone
// and p fires in round 2. Such a path survives lane c iff c ∉ L(p) ∪
// {p} and c doesn't break u's recovery, so the per-path mask is
// L(p) ∪ {p} ∪ (bv[j] or L(u)), intersected over candidate paths into
// bv[i]. Round-2 rescuers are distinct from all round-1 rescuers
// (m == 2 vs m ≤ 1) and from each other (p determines its member pair).
//
// badNodes is the union of all member masks. That settles the suffix;
// for c itself (erased checks need no recovery):
//
//   - a zeroCheck parent p of c has missing set exactly {c} and fires
//     in round 1;
//   - a oneCheck parent p of c has missing set {v_p, c} in round 1,
//     where v_p is its single suffix member. c ∈ L(p) disqualifies p
//     as v_p's rescuer, so the rescuer of v_p that lane c preserves
//     (which exists: c ∉ badNodes) is some q ≠ p; after round 1
//     recovers v_p, p's only missing neighbor is c and p fires next.
//
// Hence goodRun (maintained incrementally: every check bit, plus data
// bits with a zeroCheck or oneCheck parent) marks sweeping elements
// whose whole pattern is provably recoverable: a lane is proven by
// goodRun[c] ∧ ¬badNodes[c], and every other lane goes to the fixpoint,
// which assumes nothing. Real peeling runs rules 1 and 2 to a fixpoint,
// so it is at least as strong as these schedules.
func (s *slicedScanner) runCertificate(idx []int) bool {
	words := s.csr.Words
	suffix := idx[1:]
	anyDeficient := false
	for i, v := range suffix {
		if int32(v) >= s.data {
			s.deficient[i] = false
			continue
		}
		inter := s.bv[i*words : (i+1)*words]
		first, empty := true, false
		for _, q := range s.csr.Parents(int32(v)) {
			if s.oneCheck[q>>6]&(1<<(uint(q)&63)) == 0 {
				continue
			}
			lm := s.csr.LeftMask(q)
			qw, qb := int(q>>6), uint64(1)<<(uint(q)&63)
			if first {
				copy(inter, lm)
				inter[qw] |= qb
				first = false
				continue
			}
			nz := uint64(0)
			for w := range inter {
				x := lm[w]
				if w == qw {
					x |= qb
				}
				inter[w] &= x
				nz |= inter[w]
			}
			if nz == 0 {
				empty = true
				break
			}
		}
		s.deficient[i] = first
		anyDeficient = anyDeficient || first
		if empty {
			for w := range inter {
				inter[w] = 0
			}
		}
	}
	if anyDeficient && !s.certifyDeficient(suffix) {
		return false
	}
	bw := s.badNodes
	for w := range bw {
		bw[w] = 0
	}
	for i, v := range suffix {
		if int32(v) >= s.data {
			continue
		}
		src := s.bv[i*words : (i+1)*words]
		for w := range bw {
			bw[w] |= src[w]
		}
	}
	return true
}

// certifyDeficient is runCertificate's second pass: for every suffix
// data member without a round-1 rescuer, intersect the masks of its
// two-round recovery paths into bv. Returns false if some deficient
// member has no path at all.
func (s *slicedScanner) certifyDeficient(suffix []int) bool {
	words := s.csr.Words
	for i, v := range suffix {
		if !s.deficient[i] {
			continue
		}
		inter := s.bv[i*words : (i+1)*words]
		first := true
		for _, p := range s.csr.Parents(int32(v)) {
			if s.m[p] != 2 || s.sufMask[p>>6]&(1<<(uint(p)&63)) != 0 {
				continue
			}
			// The other missing member u of p (exactly one: m == 2).
			lmp := s.csr.LeftMask(p)
			u := int32(-1)
			for w := 0; w < words; w++ {
				x := lmp[w] & s.sufMask[w]
				if w == v>>6 {
					x &^= 1 << (uint(v) & 63)
				}
				if x != 0 {
					u = int32(w<<6 + bits.TrailingZeros64(x))
					break
				}
			}
			if u < 0 {
				continue
			}
			var uMask []uint64 // lanes that break u's round-1 recovery
			if u < s.data {
				j := -1
				for jj, sv := range suffix {
					if int32(sv) == u {
						j = jj
						break
					}
				}
				if j < 0 || s.deficient[j] {
					continue
				}
				uMask = s.bv[j*words : (j+1)*words]
			} else {
				// u is an erased check: rule 2 recomputes it in round 1
				// iff no suffix member sits among its left neighbors and
				// the lane stays out of L(u).
				uMask = s.csr.LeftMask(u)
				mu := uint64(0)
				for w := 0; w < words; w++ {
					mu |= uMask[w] & s.sufMask[w]
				}
				if mu != 0 {
					continue
				}
			}
			pw, pb := int(p>>6), uint64(1)<<(uint(p)&63)
			if first {
				for w := range inter {
					inter[w] = lmp[w] | uMask[w]
				}
				inter[pw] |= pb
				first = false
				continue
			}
			for w := range inter {
				x := lmp[w] | uMask[w]
				if w == pw {
					x |= pb
				}
				inter[w] &= x
			}
		}
		if first {
			return false // no two-round path either
		}
	}
	return true
}

// extractWindow gathers the window bits mask[c0], mask[c0+dir], …, into
// lanes 0, 1, …. Bits beyond the caller's lane count are garbage; mask
// with the active-lane set. The window never leaves the node space: an
// ascending sweep stays below idx[1], a descending one ends at 0.
func extractWindow(mask []uint64, c0, dir int) uint64 {
	if dir > 0 {
		w, off := c0>>6, uint(c0&63)
		x := mask[w] >> off
		if off != 0 && w+1 < len(mask) {
			x |= mask[w+1] << (64 - off)
		}
		return x
	}
	// Descending: gather the ascending 64-bit window ending at c0, then
	// reverse so lane L reads bit c0−L.
	lo := c0 - 63
	var g uint64
	if lo >= 0 {
		w, off := lo>>6, uint(lo&63)
		g = mask[w] >> off
		if off != 0 && w+1 < len(mask) {
			g |= mask[w+1] << (64 - off)
		}
	} else {
		g = mask[0] << uint(-lo)
	}
	return bits.Reverse64(g)
}

// enqueue adds the lane pattern suffix ∪ {c0} to the fixpoint batch.
// The caller flushes first when the batch is full.
func (s *slicedScanner) enqueue(idx []int, c0 int) {
	p := s.batchPat[s.batchLen]
	p[0] = c0
	copy(p[1:], idx[1:])
	bit := uint64(1) << uint(s.batchLen)
	for _, v := range p {
		s.sk.Erase(v, bit)
	}
	s.batchLen++
}

// flushBatch evaluates the pending batch in one word-wide fixpoint,
// records its failures, and returns the failed-slot mask.
func (s *slicedScanner) flushBatch(res *RangeResult, maxFailures int) uint64 {
	nb := s.batchLen
	if nb == 0 {
		return 0
	}
	active := ^uint64(0)
	if nb < decode.Lanes {
		active = 1<<uint(nb) - 1
	}
	s.sk.SetActive(active)
	failed := active &^ s.sk.Eval()
	s.sk.Reset()
	s.batchLen = 0
	res.Tested += int64(nb)
	if failed != 0 {
		res.FailureCount += int64(bits.OnesCount64(failed))
		for f := failed; f != 0; f &= f - 1 {
			slot := bits.TrailingZeros64(f)
			res.Failures = recordFailure(res.Failures, s.batchPat[slot], maxFailures)
		}
	}
	return failed
}

// scanRun evaluates one maximal revolving-door run: runLen consecutive
// ranks starting at rank, whose patterns share the suffix idx[1:] while
// the smallest element sweeps from idx[0] in direction dir.
func (s *slicedScanner) scanRun(res *RangeResult, idx []int, rank, runLen int64, dir, maxFailures int) {
	certOK := s.runCertificate(idx)
	c0 := idx[0]
	laneRank := rank
	for remaining := runLen; remaining > 0; {
		n := decode.Lanes
		if int64(n) > remaining {
			n = int(remaining)
		}
		active := ^uint64(0)
		if n < decode.Lanes {
			active = 1<<uint(n) - 1
		}
		var proven uint64
		if certOK {
			proven = active & extractWindow(s.goodRun, c0, dir) &^ extractWindow(s.badNodes, c0, dir)
		}
		unresolved := active &^ proven
		res.Tested += int64(bits.OnesCount64(proven))
		if s.onVerdict != nil {
			s.hookWord(res, idx, laneRank, c0, dir, n, proven, unresolved, maxFailures)
		} else {
			for u := unresolved; u != 0; u &= u - 1 {
				if s.batchLen == decode.Lanes {
					s.flushBatch(res, maxFailures)
				}
				s.enqueue(idx, c0+dir*bits.TrailingZeros64(u))
			}
		}
		c0 += dir * n
		laneRank += int64(n)
		remaining -= int64(n)
	}
}

// hookWord is the onVerdict (test) path of scanRun's word loop: it keeps
// the batch word-local so every verdict — proven and fixpoint alike —
// can be reported in rank order.
func (s *slicedScanner) hookWord(res *RangeResult, idx []int, laneRank int64, c0, dir, n int, proven, unresolved uint64, maxFailures int) {
	s.flushBatch(res, maxFailures) // any carry-over enqueued before the hook was set
	for u := unresolved; u != 0; u &= u - 1 {
		s.enqueue(idx, c0+dir*bits.TrailingZeros64(u))
	}
	failed := s.flushBatch(res, maxFailures)
	slot := 0
	for L := 0; L < n; L++ {
		ok := true
		if unresolved&(1<<uint(L)) != 0 {
			ok = failed&(1<<uint(slot)) == 0
			slot++
		}
		s.setPattern(idx, c0+dir*L)
		s.onVerdict(laneRank+int64(L), s.pattern, ok)
	}
}

// scanRangeSliced is the body of ScanRangeCtx. Progress counters are
// flushed in evaluated patterns (not words) every cancelCheckInterval
// patterns. hook, when non-nil, receives every verdict in rank order (see
// slicedScanner.onVerdict); production callers pass nil.
func scanRangeSliced(ctx context.Context, g *graph.Graph, k int, lo, hi int64, maxFailures int, hook func(int64, []int, bool)) (RangeResult, error) {
	if k < 1 || k > g.Total {
		return RangeResult{}, fmt.Errorf("sim: cardinality %d out of range for %d nodes", k, g.Total)
	}
	total, ok := combin.BinomialInt64(g.Total, k)
	if !ok {
		return RangeResult{}, fmt.Errorf("sim: C(%d,%d) exceeds the exhaustive rank space (%w); use the sampled certification spec for archival-scale graphs", g.Total, k, combin.ErrRankOverflow)
	}
	if lo < 0 || hi > total || lo > hi {
		return RangeResult{}, fmt.Errorf("sim: rank range [%d,%d) outside [0,%d)", lo, hi, total)
	}
	if lo == hi {
		return RangeResult{}, nil
	}
	reg := Metrics()
	tested := reg.Counter(MetricCombinationsTested)
	found := reg.Counter(MetricFailuresFound)

	s := newSlicedScanner(g, k, hook)
	idx := make([]int, k)
	combin.GrayUnrank(idx, g.Total, lo)
	copy(s.cur, idx[1:])
	for _, v := range idx[1:] {
		s.eraseSuffix(v)
	}

	var res RangeResult
	var lastFlushTested, lastFlushFails int64
	budget := int64(0) // patterns until the next flush/cancel check
	for r := lo; r < hi; {
		if budget <= 0 {
			s.flushBatch(&res, maxFailures)
			if ctx.Err() != nil {
				return RangeResult{}, ctx.Err()
			}
			tested.Add(res.Tested - lastFlushTested)
			found.Add(res.FailureCount - lastFlushFails)
			lastFlushTested, lastFlushFails = res.Tested, res.FailureCount
			budget = cancelCheckInterval
		}
		// Maximal run from the current state: Algorithm R's easy step
		// moves only idx[0] — up toward idx[1] (or n) when k is odd, down
		// toward 0 when k is even.
		var runLen int64
		dir := 1
		if k%2 == 1 {
			c2 := g.Total
			if k > 1 {
				c2 = idx[1]
			}
			runLen = int64(c2 - idx[0])
		} else {
			runLen = int64(idx[0] + 1)
			dir = -1
		}
		if runLen > hi-r {
			runLen = hi - r
		}
		s.scanRun(&res, idx, r, runLen, dir, maxFailures)
		r += runLen
		budget -= runLen
		if r < hi {
			// Step over the run boundary: position idx[0] at the run's
			// last pattern (where the easy step is exhausted) and let
			// GrayNext take the hard step, then re-sync the suffix delta.
			idx[0] += dir * int(runLen-1)
			if _, _, ok := combin.GrayNext(idx, g.Total); !ok {
				return RangeResult{}, fmt.Errorf("sim: revolving-door enumeration exhausted at rank %d of [%d,%d)", r, lo, hi)
			}
			s.resyncSuffix(idx)
		}
	}
	s.flushBatch(&res, maxFailures)
	tested.Add(res.Tested - lastFlushTested)
	found.Add(res.FailureCount - lastFlushFails)
	return res, nil
}
