package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Spans of one operation share Op; Parent is
// the span that caused this one (0 for roots). Self is the span's duration
// minus the part of it covered by its child spans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxChildSpans bounds the backend spans kept verbatim for the trace file;
// every child still counts toward its parent's self time and the backend
// counters.
const maxChildSpans = 50_000

// recorder keeps spans in memory for the length of a run and writes them
// out when it ends. Recording can be switched off so a traced run can time
// an untraced phase on the same stack.
type recorder struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu       sync.Mutex
	spans    []span
	children int // backend spans kept verbatim
}

func newRecorder() *recorder {
	rec := &recorder{t0: time.Now()}
	rec.on.Store(true)
	return rec
}

// setOn switches recording; a nil recorder (an untraced run) stays off.
func (rec *recorder) setOn(on bool) {
	if rec != nil {
		rec.on.Store(on)
	}
}

func (rec *recorder) isOn() bool { return rec != nil && rec.on.Load() }

func (rec *recorder) now() int64 { return int64(time.Since(rec.t0)) }

// opTrace is a live span that collects the intervals of its children.
// Backend calls made on behalf of an operation find it in their context.
type opTrace struct {
	rec    *recorder
	up     *opTrace // the span that caused this one, if recorded
	id, op int64
	parent int64
	name   string
	start  int64

	mu    sync.Mutex
	kids  [][2]int64
	reads int64 // backend reads made on behalf of this span
}

type opKey struct{}

// begin opens a span; parent may be nil for a root. A nil recorder (an
// untraced run) returns nil, and every opTrace method accepts nil.
func (rec *recorder) begin(name string, parent *opTrace) *opTrace {
	if !rec.isOn() {
		return nil
	}
	id := rec.nextID.Add(1)
	t := &opTrace{rec: rec, id: id, op: id, name: name, start: rec.now()}
	if parent != nil {
		t.up, t.parent, t.op = parent, parent.id, parent.op
	}
	return t
}

// with returns ctx carrying t, so the backend shim can attribute its calls.
func (t *opTrace) with(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, t)
}

func opFrom(ctx context.Context) *opTrace {
	t, _ := ctx.Value(opKey{}).(*opTrace)
	return t
}

// child records one backend call [start, end) made on behalf of t.
func (t *opTrace) child(name string, start, end int64, read bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.kids = append(t.kids, [2]int64{start, end})
	if read {
		t.reads++
	}
	t.mu.Unlock()
	rec := t.rec
	rec.mu.Lock()
	if rec.children < maxChildSpans {
		rec.children++
		rec.spans = append(rec.spans, span{ID: rec.nextID.Add(1), Parent: t.id, Op: t.op, Name: name, Start: start, End: end, Self: end - start})
	}
	rec.mu.Unlock()
}

// end closes t and stores its span, with self time computed from the union
// of its children's intervals (children of one op may run concurrently).
func (t *opTrace) end() span {
	if t == nil {
		return span{}
	}
	end := t.rec.now()
	t.mu.Lock()
	kids := t.kids
	t.mu.Unlock()
	s := span{ID: t.id, Parent: t.parent, Op: t.op, Name: t.name, Start: t.start, End: end}
	s.Self = (end - t.start) - covered(kids, t.start, end)
	if t.up != nil {
		t.up.mu.Lock()
		t.up.kids = append(t.up.kids, [2]int64{t.start, end})
		t.up.mu.Unlock()
	}
	t.rec.mu.Lock()
	t.rec.spans = append(t.rec.spans, s)
	t.rec.mu.Unlock()
	return s
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(math.MinInt64), int64(math.MinInt64)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// named returns the recorded spans with the given name.
func (rec *recorder) named(name string) []span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []span
	for _, s := range rec.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every kept span, one JSON object per line, in start
// order.
func (rec *recorder) writeJSONL(path string) error {
	rec.mu.Lock()
	spans := slices.Clone(rec.spans)
	rec.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn inside a span named name (a no-op span when untraced) and
// returns fn's wall time.
func (r *run) timed(name string, parent *opTrace, fn func(t *opTrace) error) (time.Duration, error) {
	t := r.rec.begin(name, parent)
	start := time.Now()
	err := fn(t)
	d := time.Since(start)
	t.end()
	return d, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
