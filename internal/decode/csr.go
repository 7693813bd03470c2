package decode

import (
	"sync"
	"sync/atomic"

	"tornado/internal/graph"
)

// CSR is a flat-array (compressed sparse row) snapshot of a graph's
// adjacency, built once and then shared read-only by any number of Kernels
// (one per worker goroutine). Both directions are flattened into offset +
// adjacency pairs so the peeling inner loops walk contiguous int32 slices
// instead of chasing the per-node slice headers of graph.Graph — the
// exhaustive scans evaluate tens of millions of patterns, so the pointer
// indirection per neighbor list is measurable.
//
// A CSR does not observe later mutations of the source graph (AddEdge,
// RewireEdge, …); build a fresh CSR after adjusting a graph. This is the
// access pattern of the certification loops, which re-certify a rewired
// graph from scratch anyway.
type CSR struct {
	Data  int32 // data node count; IDs 0..Data-1
	Total int32 // total node count

	// Parents of node v (the right nodes referencing v):
	// parAdj[parOff[v]:parOff[v+1]].
	parOff []int32
	parAdj []int32

	// Left neighbors of right node r: leftAdj[leftOff[r]:leftOff[r+1]].
	// Data nodes have empty ranges.
	leftOff []int32
	leftAdj []int32

	// Words is the length of a node bitmask: ceil(Total/64).
	Words int

	// The dense mask tables (see Masks) cost 2·Total·Words words —
	// quadratic in the node count, 2.5 GB at n=100k — and only the
	// exhaustive scan and the scalar Kernel read them, so they are built
	// on first demand rather than by NewCSR.
	masksOnce  sync.Once
	masksBuilt atomic.Bool
	leftMask   []uint64
	parMask    []uint64
}

// NewCSR flattens g's adjacency into O(edges) offset and adjacency
// arrays. The graph is not retained.
func NewCSR(g *graph.Graph) *CSR {
	c := &CSR{
		Data:    int32(g.Data),
		Total:   int32(g.Total),
		parOff:  make([]int32, g.Total+1),
		leftOff: make([]int32, g.Total+1),
	}
	var nPar, nLeft int32
	for v := 0; v < g.Total; v++ {
		c.parOff[v] = nPar
		nPar += int32(len(g.Parents(v)))
		c.leftOff[v] = nLeft
		if g.IsRight(v) {
			nLeft += int32(len(g.LeftNeighbors(v)))
		}
	}
	c.parOff[g.Total] = nPar
	c.leftOff[g.Total] = nLeft
	c.parAdj = make([]int32, 0, nPar)
	c.leftAdj = make([]int32, 0, nLeft)
	for v := 0; v < g.Total; v++ {
		c.parAdj = append(c.parAdj, g.Parents(v)...)
		if g.IsRight(v) {
			c.leftAdj = append(c.leftAdj, g.LeftNeighbors(v)...)
		}
	}
	c.Words = (g.Total + 63) / 64
	return c
}

// CSRAllocBound is the most NewCSR may allocate for a graph of the given
// edge and node counts: twice the 8 bytes per edge and per node that the
// two directions' int32 adjacency and offset arrays take, plus 64 KiB for
// the struct and allocator rounding. It is linear in the graph, which is
// the point: a CSR at archival scale costs megabytes, not the gigabytes
// of the dense mask tables.
func CSRAllocBound(edges, nodes int) uint64 {
	return uint64(16*edges+16*nodes) + 64<<10
}

// Masks returns the dense per-node bitmask tables, building them on the
// first call; concurrent callers share one build. Each table holds one
// Words-long bitmask per node, node v's at [v*Words, (v+1)*Words):
//
//   - left: right node r's left neighbors (all-zero for data nodes), so a
//     kernel counts a check's missing neighbors against an erased-set
//     mask with a couple of AND+POPCNT operations instead of walking the
//     adjacency list;
//   - par: the transpose — node v's parents (the checks referencing it),
//     which kernels intersect with a set of checks without walking the
//     parent list.
//
// Callers hold on to the returned slices so their hot loops index plain
// slices, and must not mutate them.
func (c *CSR) Masks() (left, par []uint64) {
	c.masksOnce.Do(c.buildMasks)
	return c.leftMask, c.parMask
}

// MasksBuilt reports whether Masks has built the dense tables.
func (c *CSR) MasksBuilt() bool { return c.masksBuilt.Load() }

func (c *CSR) buildMasks() {
	total, words := int(c.Total), c.Words
	c.leftMask = make([]uint64, total*words)
	for r := c.Data; r < c.Total; r++ {
		m := c.leftMask[int(r)*words : int(r+1)*words]
		for _, l := range c.LeftNeighbors(r) {
			m[l>>6] |= 1 << (uint(l) & 63)
		}
	}
	c.parMask = make([]uint64, total*words)
	for v := int32(0); v < c.Total; v++ {
		m := c.parMask[int(v)*words : int(v+1)*words]
		for _, p := range c.Parents(v) {
			m[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	c.masksBuilt.Store(true)
}

// Parents returns the right nodes referencing v. The caller must not
// mutate the returned slice.
func (c *CSR) Parents(v int32) []int32 { return c.parAdj[c.parOff[v]:c.parOff[v+1]] }

// LeftNeighbors returns the left-neighbor list of right node r. The caller
// must not mutate the returned slice.
func (c *CSR) LeftNeighbors(r int32) []int32 { return c.leftAdj[c.leftOff[r]:c.leftOff[r+1]] }
