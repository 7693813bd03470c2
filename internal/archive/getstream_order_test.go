package archive_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"tornado/internal/archive"
	"tornado/internal/chaos"
	"tornado/internal/core"
	"tornado/internal/device"
)

// TestGetStreamOutOfOrderCompletion forces a parallel GetStream to finish
// stripes out of order: every fourth stripe reads a slow node, and the
// others have lost that node's block and plan around it, so they overtake
// the stripe the writer is waiting for. The read must neither deadlock
// (buffers parked by finished later stripes must never starve the next
// stripe in order) nor race (the per-worker device sets are merged only
// after the workers exit), and it must match the sequential read byte for
// byte and stat for stat. Run it under -race at several GOMAXPROCS values
// (make race uses -cpu 1,2,4,8); the pipeline width is clamped to
// GOMAXPROCS, so -cpu 1 checks the sequential path it falls back to.
func TestGetStreamOutOfOrderCompletion(t *testing.T) {
	g, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(77, 1)))
	if err != nil {
		t.Fatal(err)
	}
	inner := archive.NewArrayBackend(device.NewArray(g.Total))
	inj := chaos.Wrap(inner, chaos.Config{Seed: 1})
	s, err := archive.NewWithBackend(g, inj, archive.Config{BlockSize: 32, DisableReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 24
	data := make([]byte, stripes*s.Layout().StripeCapacity)
	rng := rand.New(rand.NewPCG(5, 0))
	for i := range data {
		data[i] = byte(rng.IntN(256))
	}
	ctx := context.Background()
	if _, err := s.PutStream(ctx, "obj", bytes.NewReader(data), archive.WithParallelism(1)); err != nil {
		t.Fatal(err)
	}

	// Data node 0's block survives only in stripes 0, 4, 8, …; its device
	// answers every read slowly.
	const slowNode = 0
	slowDev := -1
	for st := 0; st < stripes; st++ {
		key := []byte(fmt.Sprintf("obj/%d/%d", st, slowNode))
		for d := 0; d < g.Total; d++ {
			if st%4 == 0 {
				if inner.Available(d, key) {
					slowDev = d
				}
				continue
			}
			if err := inner.Delete(ctx, d, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if slowDev < 0 {
		t.Fatal("no device holds data node 0's block")
	}
	inj.SlowNode(slowDev, 5*time.Millisecond)

	var serial bytes.Buffer
	_, want, err := s.GetStream(ctx, "obj", &serial, archive.WithParallelism(1))
	if err != nil || !bytes.Equal(serial.Bytes(), data) {
		t.Fatalf("sequential GetStream: %v", err)
	}
	for round := 0; round < 3; round++ {
		for _, par := range []int{2, 4, 8} {
			// A deadlocked pipeline would hang; the deadline turns that
			// into a failure.
			rctx, cancel := context.WithTimeout(ctx, 20*time.Second)
			var out bytes.Buffer
			n, got, err := s.GetStream(rctx, "obj", &out, archive.WithParallelism(par))
			cancel()
			if err != nil {
				t.Fatalf("round %d par=%d: GetStream: %v", round, par, err)
			}
			if n != len(data) || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("round %d par=%d: payload mismatch (%d bytes)", round, par, n)
			}
			if got.DevicesAccessed != want.DevicesAccessed || got.BlocksRead != want.BlocksRead ||
				got.BlocksRepaired != want.BlocksRepaired {
				t.Fatalf("round %d par=%d: stats %+v, sequential %+v", round, par, got, want)
			}
		}
	}
}
