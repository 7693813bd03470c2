package archive

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// DefaultStreamParallelism is the stripe pipeline width PutStream and
// GetStream use when no WithParallelism option is given: enough overlap to
// hide per-stripe backend latency without ballooning the bounded buffer
// pool.
const DefaultStreamParallelism = 4

// streamOptions tunes the streaming data path.
type streamOptions struct {
	parallelism int
}

// normalize replaces zero fields with the exported Default* values and
// clamps the pipeline width to the host (the internal/sim option idiom).
func (o streamOptions) normalize() streamOptions {
	if o.parallelism <= 0 {
		o.parallelism = DefaultStreamParallelism
	}
	if max := runtime.GOMAXPROCS(0); o.parallelism > max {
		o.parallelism = max
	}
	return o
}

// StreamOption configures PutStream/GetStream.
type StreamOption func(*streamOptions)

// WithParallelism sets how many stripes may be in flight concurrently.
// Peak memory is O(parallelism × stripe); 1 selects the sequential path
// (no pipeline goroutines at all). Zero or negative means
// DefaultStreamParallelism; values above GOMAXPROCS are clamped.
func WithParallelism(n int) StreamOption {
	return func(o *streamOptions) { o.parallelism = n }
}

func applyStreamOptions(opts []StreamOption) streamOptions {
	var o streamOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o.normalize()
}

// PutStream ingests an object of unknown size from r, striping it as it
// streams: stripe payloads are read sequentially and encoded + written
// through a bounded worker pipeline, so peak memory is O(parallelism ×
// stripe) regardless of object size. The transactional property is
// preserved — on error (including cancellation) the partial object is
// rolled back. It returns the number of payload bytes stored.
//
// This is the data path's write API of record; Put/PutParallel/PutReader
// are wrappers over it.
func (s *Store) PutStream(ctx context.Context, name string, r io.Reader, opts ...StreamOption) (int, error) {
	o := applyStreamOptions(opts)
	obj, err := s.reserve(name, 0)
	if err != nil {
		return 0, err
	}
	total, stripes, err := s.putStream(ctx, name, r, o)
	if err != nil {
		s.discardBlocks(ctx, name, stripes)
		s.deleteObject(name)
		return 0, err
	}
	s.mu.Lock()
	obj.Size = total
	obj.Stripes = stripes
	s.mu.Unlock()
	return total, nil
}

// putStream runs the bounded ingest pipeline, returning the bytes read and
// the number of stripes that may have blocks written (for rollback).
func (s *Store) putStream(ctx context.Context, name string, r io.Reader, o streamOptions) (total, stripes int, err error) {
	cap := s.codec.Capacity()
	if o.parallelism == 1 {
		// Sequential fast path: one scratch, one stripe buffer, no
		// goroutines — the steady-state stripe loop the bench gate
		// measures.
		sc := s.newScratch()
		buf := make([]byte, cap)
		for {
			if err := ctx.Err(); err != nil {
				return total, stripes + 1, err
			}
			n, rerr := io.ReadFull(r, buf)
			eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
			if rerr != nil && !eof {
				return total, stripes + 1, fmt.Errorf("archive: stream %q: %w", name, rerr)
			}
			if n > 0 || stripes == 0 {
				if _, perr := s.putStripe(ctx, name, stripes, buf[:n], sc); perr != nil {
					return total, stripes + 1, perr
				}
				stripes++
				total += n
			}
			if eof {
				return total, stripes, nil
			}
		}
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		st  int
		buf []byte // payload slice (length = stripe payload)
	}
	jobs := make(chan job)
	// The buffer pool bounds in-flight payload memory: parallelism buffers
	// total, recycled from worker back to reader.
	pool := make(chan []byte, o.parallelism)
	for i := 0; i < o.parallelism; i++ {
		pool <- make([]byte, cap)
	}
	errc := make(chan error, o.parallelism)
	var wg sync.WaitGroup
	for i := 0; i < o.parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.newScratch()
			for j := range jobs {
				if pctx.Err() != nil {
					// Drain cheaply after a failure; buffers still recycle
					// so the reader never blocks on a dead pipeline.
					pool <- j.buf[:cap]
					continue
				}
				_, perr := s.putStripe(pctx, name, j.st, j.buf, sc)
				pool <- j.buf[:cap]
				if perr != nil {
					errc <- perr
					cancel()
				}
			}
		}()
	}

	readErr := func() error {
		for {
			if err := pctx.Err(); err != nil {
				return err
			}
			var buf []byte
			select {
			case buf = <-pool:
			case <-pctx.Done():
				return pctx.Err()
			}
			n, rerr := io.ReadFull(r, buf)
			eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
			if rerr != nil && !eof {
				pool <- buf[:cap]
				return fmt.Errorf("archive: stream %q: %w", name, rerr)
			}
			if n > 0 || stripes == 0 {
				jobs <- job{st: stripes, buf: buf[:n]}
				stripes++
				total += n
			} else {
				pool <- buf[:cap]
			}
			if eof {
				return nil
			}
		}
	}()
	close(jobs)
	wg.Wait()
	close(errc)
	for werr := range errc {
		return total, stripes, werr
	}
	if readErr != nil {
		// Prefer a worker error (the root cause) over the secondary ctx
		// error the reader saw after cancel; none arrived, so report this.
		return total, stripes, readErr
	}
	return total, stripes, nil
}

// GetStream streams an object to w stripe by stripe, reconstructing
// stripes through a bounded worker pipeline and delivering them in order;
// peak memory is O(parallelism × stripe). It returns the bytes written and
// the aggregated retrieval stats.
//
// This is the data path's read API of record; Get/GetParallel/GetWriter
// are wrappers over it.
func (s *Store) GetStream(ctx context.Context, name string, w io.Writer, opts ...StreamOption) (int, GetStats, error) {
	o := applyStreamOptions(opts)
	size, stripes, err := s.lookup(name)
	var stats GetStats
	if err != nil {
		return 0, stats, err
	}
	cap := s.codec.Capacity()
	if o.parallelism == 1 || stripes <= 1 {
		sc := s.newScratch()
		written := 0
		for st := 0; st < stripes; st++ {
			if err := ctx.Err(); err != nil {
				return written, stats, err
			}
			want := min(size-st*cap, cap)
			payload, err := s.getStripe(ctx, name, st, want, sc, &stats)
			if err != nil {
				return written, stats, err
			}
			n, werr := w.Write(payload)
			written += n
			if werr != nil {
				return written, stats, fmt.Errorf("archive: stream %q: %w", name, werr)
			}
		}
		stats.DevicesAccessed = len(sc.touched)
		return written, stats, nil
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		st  int
		buf []byte // this stripe's payload buffer, acquired before dispatch
	}
	type result struct {
		st      int
		payload []byte // the job's buffer; recycled after the in-order write
		stats   GetStats
		err     error
	}
	// Buffer pool: parallelism payload buffers bound in-flight memory. The
	// dispatcher takes a buffer before handing out each stripe, so buffers
	// are held by a contiguous run of stripes starting at the one the
	// writer waits for; that stripe always owns a buffer, and the pipeline
	// cannot deadlock however stripes complete (as in putStream).
	pool := make(chan []byte, o.parallelism)
	for i := 0; i < o.parallelism; i++ {
		pool <- make([]byte, 0, cap)
	}
	jobs := make(chan job)
	// One result slot per worker: a finished worker never waits on the
	// writer's w.Write.
	results := make(chan result, o.parallelism)
	scs := make([]*stripeScratch, o.parallelism)
	var wg sync.WaitGroup
	for i := range scs {
		scs[i] = s.newScratch()
		wg.Add(1)
		go func(sc *stripeScratch) {
			defer wg.Done()
			for j := range jobs {
				want := min(size-j.st*cap, cap)
				var rstats GetStats
				payload, gerr := s.getStripe(pctx, name, j.st, want, sc, &rstats)
				results <- result{st: j.st, payload: append(j.buf[:0], payload...), stats: rstats, err: gerr}
			}
		}(scs[i])
	}
	go func() {
		defer close(jobs)
		for st := 0; st < stripes; st++ {
			var buf []byte
			select {
			case buf = <-pool:
			case <-pctx.Done():
				return
			}
			select {
			case jobs <- job{st, buf}:
			case <-pctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	written := 0
	next := 0
	pending := map[int]result{}
	var firstErr error
	for r := range results {
		pending[r.st] = r
		for {
			pr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			stats.BlocksRead += pr.stats.BlocksRead
			stats.BlocksRepaired += pr.stats.BlocksRepaired
			stats.CorruptBlocks += pr.stats.CorruptBlocks
			stats.ReadRepairs += pr.stats.ReadRepairs
			stats.Retries += pr.stats.Retries
			stats.Repair.Add(pr.stats.Repair)
			if firstErr == nil {
				firstErr = cmp.Or(pr.err, ctx.Err())
				if firstErr == nil {
					n, werr := w.Write(pr.payload)
					written += n
					if werr != nil {
						firstErr = fmt.Errorf("archive: stream %q: %w", name, werr)
					}
				}
				if firstErr != nil {
					cancel()
				}
			}
			pool <- pr.payload[:0]
			next++
		}
	}
	if firstErr == nil && next < stripes {
		// The dispatcher stopped early, which only ctx's cancellation
		// after the last dispatched stripe was written can cause.
		firstErr = ctx.Err()
	}
	// Every worker has exited (results is closed), so their device sets
	// are safe to merge.
	touched := map[int]bool{}
	for _, sc := range scs {
		for v := range sc.touched {
			touched[v] = true
		}
	}
	stats.DevicesAccessed = len(touched)
	return written, stats, firstErr
}

// PutReader ingests an object of unknown size from r.
//
// Deprecated: use PutStream, which adds cancellation and a bounded
// parallel pipeline. PutReader is PutStream with context.Background() and
// sequential processing.
func (s *Store) PutReader(name string, r io.Reader) (int, error) {
	return s.PutStream(context.Background(), name, r, WithParallelism(1))
}

// GetWriter streams an object to w stripe by stripe.
//
// Deprecated: use GetStream, which adds cancellation and a bounded
// parallel pipeline. GetWriter is GetStream with context.Background() and
// sequential processing.
func (s *Store) GetWriter(name string, w io.Writer) (int, GetStats, error) {
	return s.GetStream(context.Background(), name, w, WithParallelism(1))
}

// errIsCtx reports whether err is a context cancellation/deadline error.
func errIsCtx(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
