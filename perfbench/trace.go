package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
)

// The traced run records spans from the benchmark's own code, around its
// calls into each layer; no production package is instrumented for it.

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for the request's root.
type span struct {
	Req    int32  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay runs the same code.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) start(req, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.base))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

func (t *tracer) rename(id int32, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// layerTimes aggregates spans by name: durations and self times (duration
// minus the time covered by child spans, minus any hidden time a caller
// attributes to a span through hidden, such as analysis time the program
// reports from inside a call). Spans of one request are recorded on one
// goroutine, properly nested, so children never overlap.
type layerTimes struct {
	durs   map[string]durations
	selfs  map[string]durations
	totals map[int32]time.Duration // request -> root span duration
	layers map[int32]time.Duration // request -> time inside the root's children
	// violations counts requests whose self times do not fit inside their
	// traced total, or spans with negative self time.
	violations int
}

func (t *tracer) aggregate(hidden map[int32]time.Duration) *layerTimes {
	lt := &layerTimes{
		durs:   map[string]durations{},
		selfs:  map[string]durations{},
		totals: map[int32]time.Duration{},
		layers: map[int32]time.Duration{},
	}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	selfSum := map[int32]time.Duration{}
	for _, s := range t.spans {
		d := s.dur()
		self := d - children[s.ID] - hidden[s.ID]
		if self < 0 {
			lt.violations++
		}
		lt.durs[s.Name] = append(lt.durs[s.Name], d)
		lt.selfs[s.Name] = append(lt.selfs[s.Name], self)
		if s.Parent < 0 {
			lt.totals[s.Req] = d
			lt.layers[s.Req] = children[s.ID]
		} else {
			selfSum[s.Req] += self + hidden[s.ID]
		}
	}
	for req, sum := range selfSum {
		if sum > lt.totals[req] {
			lt.violations++
		}
	}
	return lt
}

// mean returns the mean duration of the named spans, 0 when there are none.
func (lt *layerTimes) mean(name string) time.Duration { return lt.durs[name].mean() }

// meanSelf returns the mean self time of the named spans.
func (lt *layerTimes) meanSelf(name string) time.Duration { return lt.selfs[name].mean() }

func (lt *layerTimes) count(name string) int { return len(lt.durs[name]) }

// spanKey carries the enclosing span through a layer call, so that spans
// opened by callbacks (the invoker) nest under it.
type spanKey struct{}

type spanRef struct {
	t       *tracer
	req, id int32
}

func withSpan(ctx context.Context, t *tracer, req, id int32) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{t, req, id})
}

// tracedInvoker opens a span around every call it forwards. When allocs is
// set, it also adds the heap allocations made during each call to it.
type tracedInvoker struct {
	name   string
	next   core.Invoker
	allocs *uint64
}

func (ti *tracedInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if ti.allocs != nil {
		m0 := mallocs()
		defer func() { *ti.allocs += mallocs() - m0 }()
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ti.next.Invoke(ctx, call)
	}
	id := ref.t.start(ref.req, ref.id, ti.name)
	out, err := ti.next.Invoke(withSpan(ctx, ref.t, ref.req, id), call)
	ref.t.end(id)
	return out, err
}

// mallocs returns the process's cumulative heap allocation count. It stops
// the world, so only the untimed allocation pass calls it.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// layerMetrics lists every per-layer metric the traced run prints, in the
// order of BENCHMARK.json. A metric that does not apply to a workload reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"xsdint.parse_us", "us"},
	{"xsdint.parse_allocs", "count"},
	{"core.cache_get_us", "us"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.compile_us", "us"},
	{"core.word_verdict_us", "us"},
	{"core.word_cache_hit_ratio", "ratio"},
	{"core.rewrite_self_us", "us"},
	{"core.rewrite_allocs", "count"},
	{"soap.call_us", "us"},
	{"soap.call_p99_us", "us"},
	{"soap.calls_per_req", "count"},
	{"invoke.retry_ratio", "ratio"},
	{"xmlio.serialize_us", "us"},
	{"xmlio.bytes_out_per_req", "B"},
	{"store.get_us", "us"},
	{"xmlio.parse_us", "us"},
	{"store.put_us", "us"},
	{"store.delete_us", "us"},
	{"wal.bytes_per_append", "B"},
	{"wal.fsyncs_per_append", "count"},
	{"wal.snapshots", "count"},
	{"replica.visible_us", "us"},
	{"replica.visible_p99_us", "us"},
	{"replica.apply_errors", "count"},
	{"replica.reconnects", "count"},
	{"replica.bootstraps", "count"},
	{"peer.overhead_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.requests", "count"},
}

// emitLayers sets every per-layer metric from values.
func emitLayers(rep *report, values map[string]float64) {
	for _, m := range layerMetrics {
		rep.set(m.name, m.unit, values[m.name])
	}
}

// overheadPct compares the traced and untraced replays of the same request
// distribution by their medians.
func overheadPct(traced, untraced durations) float64 {
	u := untraced.quantile(0.5)
	if u == 0 {
		return 0
	}
	return 100 * float64(traced.quantile(0.5)-u) / float64(u)
}
