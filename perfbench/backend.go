package main

import (
	"context"
	"sync/atomic"

	"tornado/internal/archive"
)

// timingBackend sits between the store and its real backend (the device
// array, or the chaos injector over it). While recording is on it counts
// and times every read and write, and makes each call a child span of the
// operation found in the context the store passes down, so an operation's
// self time is its span minus the backend time beneath it.
type timingBackend struct {
	inner archive.Backend
	rec   *recorder

	reads, readBytes, readNs    atomic.Int64
	writes, writeBytes, writeNs atomic.Int64
	errors                      atomic.Int64
}

var _ archive.Backend = (*timingBackend)(nil)

func (b *timingBackend) Nodes() int                          { return b.inner.Nodes() }
func (b *timingBackend) Available(node int, key []byte) bool { return b.inner.Available(node, key) }
func (b *timingBackend) Cost(node int) float64               { return b.inner.Cost(node) }

func (b *timingBackend) Read(ctx context.Context, node int, key []byte) ([]byte, error) {
	if !b.rec.isOn() {
		return b.inner.Read(ctx, node, key)
	}
	start := b.rec.now()
	data, err := b.inner.Read(ctx, node, key)
	end := b.rec.now()
	b.reads.Add(1)
	b.readBytes.Add(int64(len(data)))
	b.readNs.Add(end - start)
	if err != nil {
		b.errors.Add(1)
	}
	opFrom(ctx).child("backend.read", start, end, true)
	return data, err
}

func (b *timingBackend) Write(ctx context.Context, node int, key []byte, data []byte) error {
	if !b.rec.isOn() {
		return b.inner.Write(ctx, node, key, data)
	}
	start := b.rec.now()
	err := b.inner.Write(ctx, node, key, data)
	end := b.rec.now()
	b.writes.Add(1)
	b.writeNs.Add(end - start)
	if err != nil {
		b.errors.Add(1)
	} else {
		b.writeBytes.Add(int64(len(data)))
	}
	opFrom(ctx).child("backend.write", start, end, false)
	return err
}

func (b *timingBackend) Delete(ctx context.Context, node int, key []byte) error {
	return b.inner.Delete(ctx, node, key)
}
