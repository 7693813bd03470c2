package decode

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"tornado/internal/core"
)

// TestCSRMemoryLinearInEdges: NewCSR allocates the O(edges) offset and
// adjacency arrays and nothing quadratic. At n=20k the dense mask tables
// alone would be 2·n·⌈n/64⌉ words — about 100 MB — against well under a
// megabyte of adjacency; they are left to the consumers that read them.
// TotalAlloc is cumulative, so the measurement is immune to GC timing.
func TestCSRMemoryLinearInEdges(t *testing.T) {
	p := core.DefaultParams()
	p.TotalNodes = 20000
	g, _, err := core.Generate(p, rand.New(rand.NewPCG(2006, 0)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCSR(g)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if bound := CSRAllocBound(g.EdgeCount(), g.Total); alloc > bound {
		t.Fatalf("NewCSR at n=%d (%d edges) allocated %d bytes, bound %d", g.Total, g.EdgeCount(), alloc, bound)
	}
	if c.MasksBuilt() {
		t.Fatal("NewCSR built the dense mask tables")
	}
	left, par := c.Masks()
	if want := int(c.Total) * c.Words; len(left) != want || len(par) != want || !c.MasksBuilt() {
		t.Fatalf("Masks: tables of %d and %d words, want %d each", len(left), len(par), want)
	}
}
