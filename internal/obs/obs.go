// Package obs is the pipeline-wide observability layer: one span model,
// a metrics registry, an always-on flight recorder (see recorder.go),
// and deterministic exporters (JSONL event journal, Chrome trace_event,
// ring dump, plain-text summary).
//
// The package is zero-dependency (standard library only) so every layer
// of the repair pipeline — core, smt, sat, tsys, eval, the CLIs — can
// import it without cycles. Three properties shape the design:
//
//   - One span primitive. Pipeline code opens spans only through
//     Scope.Start/StartKeyed and closes them with End. Attributes
//     accumulate on the span; End emits one span_end event (the attrs
//     plus time_dur_us) to the scope's Recorder and removes the span
//     from its live table, so /debugz/spans, SSE subscribers and ring
//     dumps see every layer. When the scope also carries a Tracer, End
//     appends the finished span to it: the Tracer is an optional,
//     unbounded sink that the post-mortem exporters read.
//
//   - Free when off. A scope with neither a Recorder nor a Tracer opens
//     nil spans, and every Span/Tracer/Registry method is nil-safe, so
//     instrumented hot paths pay one nil check per site.
//     BenchmarkNilTracer in internal/sat pins this cost against the
//     solver hot loop.
//
//   - Deterministic output modulo timestamps. Traced spans are
//     identified by a hierarchical path (parent path + name + per-parent
//     sequence, or a caller-supplied key for concurrent siblings such as
//     portfolio attempts), and exporters sort by path and re-number ids
//     after the fact. Two runs that do the same work produce
//     byte-identical exports once timestamps and worker ids are scrubbed
//     (see Scrub*), which is what lets golden tests diff traces across
//     worker counts.
package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Attr is one typed span attribute.
type Attr struct {
	Key   string
	Str   string // used when IsStr
	Int   int64  // used otherwise
	IsStr bool
}

// Span is one timed region of the pipeline, opened by Scope.Start or
// Scope.StartKeyed. A nil *Span is the disabled span: every method
// no-ops, so instrumentation sites need no guards.
type Span struct {
	rec    *Recorder // nil: no flight recorder
	tracer *Tracer   // nil: no trace sink
	parent *Span
	id     uint64 // live-table id in rec
	name   string // aggregation name ("window", "attempt", ...)
	path   string // hierarchical trace identity ("" without a tracer)
	scope  string // the opening scope's label
	worker int
	start  time.Time

	mu     sync.Mutex
	closed bool
	attrs  []Attr
	kidSeq map[string]int // next per-name child sequence
}

// End closes the span: the recorder gets a span_end event carrying the
// span's attrs plus time_dur_us, and the tracer (if any) the finished
// span. Ending an already-ended span is a no-op.
func (s *Span) End() {
	if s != nil {
		s.end()
	}
}

func (s *Span) end() {
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	attrs := s.attrs[:len(s.attrs):len(s.attrs)] // capped: appends copy
	s.mu.Unlock()
	s.rec.endSpan(s, attrs, dur)
	s.tracer.add(s, attrs, dur)
}

func (s *Span) set(a Attr) {
	s.mu.Lock()
	if !s.closed {
		s.attrs = append(s.attrs, a)
	}
	s.mu.Unlock()
}

// SetInt attaches an integer attribute. Attributes set after End are
// dropped.
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.set(Int(key, v))
	}
}

// SetBool attaches a boolean attribute (encoded as 0/1).
func (s *Span) SetBool(key string, v bool) {
	var i int64
	if v {
		i = 1
	}
	s.SetInt(key, i)
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s != nil {
		s.set(Str(key, v))
	}
}

// snapshotAttrs copies the span's current attributes.
func (s *Span) snapshotAttrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Tracer is the optional, unbounded sink of finished spans that the
// JSONL, Chrome and summary exporters read. The zero value is not
// usable; call New. A nil *Tracer disables the sink.
type Tracer struct {
	mu      sync.Mutex
	base    time.Time
	spans   []spanRecord
	rootSeq map[string]int
}

// New returns an enabled tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{base: time.Now(), rootSeq: map[string]int{}}
}

// Start opens a span under parent (nil parent = a root span) that
// reports to this tracer only. It is the entry for callers outside the
// pipeline, which has no scope to open spans from; pipeline code uses
// Scope.Start. A nil tracer returns a nil span.
func (t *Tracer) Start(parent *Span, name string) *Span {
	return Scope{Tracer: t, Span: parent}.Start(name).Span
}

// childPath names a new span under parent: name#NNNN with a per-parent
// sequence number, or name[key] for keyed spans.
func (t *Tracer) childPath(parent *Span, name, key string) string {
	base := ""
	if parent != nil {
		base = parent.path
	}
	if key != "" {
		return base + "/" + name + "[" + key + "]"
	}
	var n int
	if parent == nil {
		t.mu.Lock()
		n = t.rootSeq[name]
		t.rootSeq[name] = n + 1
		t.mu.Unlock()
	} else {
		parent.mu.Lock()
		if parent.kidSeq == nil {
			parent.kidSeq = map[string]int{}
		}
		n = parent.kidSeq[name]
		parent.kidSeq[name] = n + 1
		parent.mu.Unlock()
	}
	return fmt.Sprintf("%s/%s#%04d", base, name, n)
}

// spanRecord is one finished span as the tracer stores it.
type spanRecord struct {
	name   string
	path   string
	parent string // parent path, "" for roots
	start  time.Duration
	dur    time.Duration
	worker int
	attrs  []Attr
}

func (t *Tracer) add(s *Span, attrs []Attr, dur time.Duration) {
	if t == nil {
		return
	}
	rec := spanRecord{name: s.name, path: s.path, start: s.start.Sub(t.base),
		dur: dur, worker: s.worker, attrs: attrs}
	if s.parent != nil {
		rec.parent = s.parent.path
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// snapshot copies all finished spans sorted by path (parents sort
// before their children because a parent's path is a strict prefix +
// "/").
func (t *Tracer) snapshot() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// PhaseStat aggregates all spans sharing one name.
type PhaseStat struct {
	Count int
	Total time.Duration
}

// PhaseTotals aggregates spans by name. Nested spans with distinct names
// each contribute their full duration, so totals across different names
// overlap; totals within one name do not.
func (t *Tracer) PhaseTotals() map[string]PhaseStat {
	out := map[string]PhaseStat{}
	for _, ss := range t.snapshot() {
		ps := out[ss.name]
		ps.Count++
		ps.Total += ss.dur
		out[ss.name] = ps
	}
	return out
}

// Scope bundles a pipeline position — the current span, its flight
// recorder and optional tracer, a hierarchical label and a worker lane
// — with a metrics registry, so one value threads the whole
// observability layer through the pipeline. The zero Scope is fully
// disabled and free to pass around. Production runs have a live
// Recorder (the flight recorder is always on) and usually a nil Tracer
// (trace exports are opt-in).
type Scope struct {
	Tracer  *Tracer
	Span    *Span
	Metrics *Registry

	// Rec is the flight recorder that spans opened from this scope
	// report to (span_begin/span_end events plus live-span-table
	// entries). Label is the scope's hierarchical position (job id,
	// design, attempt, window — grown with WithLabel) and becomes the
	// events' Scope field; Worker tags spans and events with a
	// portfolio worker lane (the Chrome trace tid).
	Rec    *Recorder
	Label  string
	Worker int
}

// WithLabel returns the scope with part appended to its hierarchical
// label ("a" + "b" → "a/b"). Labels scope flight-recorder events, so
// /debugz consumers and SSE subscribers can filter by job, design, or
// attempt prefix.
func (sc Scope) WithLabel(part string) Scope {
	if part == "" {
		return sc
	}
	if sc.Label == "" {
		sc.Label = part
	} else {
		sc.Label = sc.Label + "/" + part
	}
	return sc
}

// Start opens a child span and returns the scope positioned on it. Its
// trace path gets a per-parent sequence number, so the export is
// deterministic only when the parent's children are opened in a
// deterministic order; for concurrent siblings use StartKeyed.
func (sc Scope) Start(name string) Scope {
	sc.Span = sc.open(name, "")
	return sc
}

// StartKeyed opens a child span whose trace path component is
// name[key] instead of a sequence number. The caller must ensure key is
// unique among the parent's same-named children; in exchange the path —
// and therefore the exported output — is deterministic even when
// siblings start concurrently (e.g. portfolio attempts racing on worker
// goroutines).
func (sc Scope) StartKeyed(name, key string) Scope {
	sc.Span = sc.open(name, key)
	return sc
}

// open creates a child span of sc.Span; nil when the scope has neither
// a recorder nor a tracer.
func (sc *Scope) open(name, key string) *Span {
	if sc.Rec == nil && sc.Tracer == nil {
		return nil
	}
	sp := &Span{rec: sc.Rec, tracer: sc.Tracer, parent: sc.Span, name: name,
		scope: sc.Label, worker: sc.Worker, start: time.Now()}
	if sc.Tracer != nil {
		sp.path = sc.Tracer.childPath(sc.Span, name, key)
	}
	sc.Rec.beginSpan(sp)
	return sp
}

// End closes the scope's span.
func (sc Scope) End() { sc.Span.End() }

// Event emits a flight-recorder event at the scope's position. A scope
// without a recorder no-ops, so progress markers are free when the
// recorder is disabled (tests with private pipelines).
func (sc Scope) Event(kind, name string, attrs ...Attr) {
	sc.Rec.Emit(kind, name, sc.Label, sc.Worker, attrs...)
}

type ctxKey struct{}

// NewContext returns a context carrying the scope.
func NewContext(ctx context.Context, sc Scope) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the scope from a context (zero Scope if absent).
func FromContext(ctx context.Context) Scope {
	if ctx == nil {
		return Scope{}
	}
	sc, _ := ctx.Value(ctxKey{}).(Scope)
	return sc
}
