package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the always-on half of the observability layer
// and the home of every span (see Scope.Start): a bounded ring of
// recent structured events (span begin/end, solver heartbeats, queue
// transitions, window progress) plus two live tables — the open-span
// tree and the registry of currently-solving SAT searches. Together
// they answer "what is this process doing right now?" (served by
// /debugz/* in internal/serve) and "what happened in the last N seconds
// before it hung?" (the ring dump).
//
// Cost discipline: ring appends take one short mutex hold and reuse
// slot memory; solver heartbeats (SolverCell.Beat) are atomics only, so
// the SAT hot loop never takes a lock. The pinned budget — recorder on,
// ≤2% of solve time — lives in internal/sat's TestRecorderOverheadBudget
// next to the nil-tracer budget.

// Event kinds recorded in the ring.
const (
	EvSpanBegin = "span_begin" // a span opened (Scope.Start)
	EvSpanEnd   = "span_end"   // ... and closed (its attrs plus time_dur_us)
	EvHeartbeat = "heartbeat"  // periodic solver progress (internal/sat)
	EvQueue     = "queue"      // serve job transition (admit/start/done/...)
	EvProgress  = "progress"   // pipeline progress marker (window bounds, samples)
)

// Event is one flight-recorder record. Seq is a recorder-global sequence
// number (gaps after ring wrap are visible to consumers), T the offset
// from the recorder's epoch. Scope is the hierarchical label of the
// emitting pipeline position (job id, design, attempt, window — see
// Scope.WithLabel); Name is the event's own name within that scope.
type Event struct {
	Seq    uint64
	T      time.Duration
	Kind   string
	Name   string
	Scope  string
	Worker int
	Attrs  []Attr
}

// Int builds an integer event attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str builds a string event attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// subscriber is one live event listener (an SSE stream, a test).
type subscriber struct {
	scope   string // filter: "" = everything, else scope or scope+"/..." prefix
	ch      chan Event
	dropped atomic.Int64
}

// SolverCell is the live view of one running SAT search. The solving
// goroutine owns the write side (Beat, atomics only — no locks on the
// solver hot path); /debugz/solvers readers snapshot it concurrently.
type SolverCell struct {
	r      *Recorder
	id     uint64
	label  string
	worker int
	start  time.Time

	last       atomic.Int64 // last Beat, ns since cell start
	conflicts  atomic.Int64
	decisions  atomic.Int64
	props      atomic.Int64
	learned    atomic.Int64
	cnfVars    atomic.Int64
	cnfClauses atomic.Int64
}

// Beat publishes the search counters. Called from the solver's periodic
// poll block; atomics only.
func (c *SolverCell) Beat(conflicts, decisions, props, learned int64) {
	if c == nil {
		return
	}
	c.last.Store(int64(time.Since(c.start)))
	c.conflicts.Store(conflicts)
	c.decisions.Store(decisions)
	c.props.Store(props)
	c.learned.Store(learned)
}

// Close unregisters the cell. The solving goroutine calls it when Solve
// returns; a cell that never closes would show as a permanently stalled
// solver, which is exactly what a leak should look like.
func (c *SolverCell) Close() {
	if c == nil || c.r == nil {
		return
	}
	c.r.mu.Lock()
	delete(c.r.cells, c.id)
	c.r.mu.Unlock()
}

// SolverView is the exported snapshot of one live solver for
// /debugz/solvers.
type SolverView struct {
	Label        string  `json:"label"`
	Worker       int     `json:"worker"`
	AgeMS        int64   `json:"age_ms"`
	StallMS      int64   `json:"stall_ms"` // time since the last heartbeat
	Conflicts    int64   `json:"conflicts"`
	Decisions    int64   `json:"decisions"`
	Propagations int64   `json:"propagations"`
	Learned      int64   `json:"learned"`
	CNFVars      int64   `json:"cnf_vars"`
	CNFClauses   int64   `json:"cnf_clauses"`
	ConflictRate float64 `json:"conflicts_per_sec"` // average since the search began
}

// SpanView is one node of the live span tree for /debugz/spans.
type SpanView struct {
	Name     string         `json:"name"`
	Scope    string         `json:"scope,omitempty"`
	Worker   int            `json:"worker,omitempty"`
	AgeMS    int64          `json:"age_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanView    `json:"children,omitempty"`
}

// Recorder is the always-on flight recorder. A nil *Recorder is the
// disabled recorder: every method no-ops, so instrumentation sites need
// no guards. Use Default() for the process-wide instance.
type Recorder struct {
	epoch time.Time

	mu      sync.Mutex
	ring    []Event          // fixed-capacity circular buffer
	head    int              // next write position
	count   int              // valid entries (≤ cap)
	seq     uint64           // total events ever emitted
	spans   map[uint64]*Span // the live (open) span table
	spanSeq uint64
	cells   map[uint64]*SolverCell
	cellSeq uint64
	subs    map[uint64]*subscriber
	subSeq  uint64
}

// DefaultRingCapacity is the Default() recorder's ring size: enough for
// several seconds of heartbeat-paced events without measurable memory.
const DefaultRingCapacity = 16384

var defaultRecorder = NewRecorder(DefaultRingCapacity)

// Default returns the process-wide always-on recorder. Pipeline entry
// points (core.RepairCtx, serve.New, the CLIs) fall back to it when
// their Scope carries no recorder, which is what makes the flight
// recorder on by default in production.
func Default() *Recorder { return defaultRecorder }

// NewRecorder returns a recorder with the given ring capacity
// (minimum 16). Tests use private recorders for isolation.
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{
		epoch: time.Now(),
		ring:  make([]Event, capacity),
		spans: map[uint64]*Span{},
		cells: map[uint64]*SolverCell{},
		subs:  map[uint64]*subscriber{},
	}
}

// Emit appends one event to the ring and fans it out to subscribers.
// The ring overwrites its oldest entry when full; subscribers with full
// buffers miss the event (their drop counter ticks) rather than block
// the emitter.
func (r *Recorder) Emit(kind, name, scope string, worker int, attrs ...Attr) {
	if r == nil {
		return
	}
	ev := Event{
		T:      time.Since(r.epoch),
		Kind:   kind,
		Name:   name,
		Scope:  scope,
		Worker: worker,
		Attrs:  attrs,
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.ring[r.head] = ev
	r.head = (r.head + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	for _, sub := range r.subs {
		if !sub.matches(scope) {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
		}
	}
	r.mu.Unlock()
}

func (s *subscriber) matches(scope string) bool {
	if s.scope == "" {
		return true
	}
	if len(scope) < len(s.scope) || scope[:len(s.scope)] != s.scope {
		return false
	}
	return len(scope) == len(s.scope) || scope[len(s.scope)] == '/'
}

// beginSpan enters a span into the live table and emits span_begin.
func (r *Recorder) beginSpan(s *Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spanSeq++
	s.id = r.spanSeq
	r.spans[s.id] = s
	r.mu.Unlock()
	r.Emit(EvSpanBegin, s.name, s.scope, s.worker)
}

// endSpan removes a span from the live table and emits span_end with
// its attrs plus the duration (as time_dur_us, so scrubbed exports stay
// deterministic).
func (r *Recorder) endSpan(s *Span, attrs []Attr, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.spans, s.id)
	r.mu.Unlock()
	r.Emit(EvSpanEnd, s.name, s.scope, s.worker, append(attrs, Int("time_dur_us", dur.Microseconds()))...)
}

// Events snapshots the ring, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	start := r.head - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Dropped reports how many events have fallen off the ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(r.count)
}

// LiveSpans returns the open-span forest, children ordered by span id
// (begin order). This is the "what is in flight right now" view served
// by /debugz/spans.
func (r *Recorder) LiveSpans() []*SpanView {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	spans := make([]*Span, 0, len(r.spans))
	for _, s := range r.spans {
		spans = append(spans, s)
	}
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].id < spans[j].id })
	views := make(map[*Span]*SpanView, len(spans))
	var roots []*SpanView
	for _, s := range spans {
		v := &SpanView{
			Name:   s.name,
			Scope:  s.scope,
			Worker: s.worker,
			AgeMS:  now.Sub(s.start).Milliseconds(),
			Attrs:  attrMap(s.snapshotAttrs()),
		}
		views[s] = v
		if p, ok := views[s.parent]; ok {
			p.Children = append(p.Children, v)
		} else {
			roots = append(roots, v)
		}
	}
	return roots
}

// RegisterSolver adds a live-solver cell. The solving goroutine must
// Close it when the search returns.
func (r *Recorder) RegisterSolver(label string, worker int) *SolverCell {
	if r == nil {
		return nil
	}
	c := &SolverCell{r: r, label: label, worker: worker, start: time.Now()}
	r.mu.Lock()
	r.cellSeq++
	c.id = r.cellSeq
	r.cells[c.id] = c
	r.mu.Unlock()
	return c
}

// SetCNF records the search's problem size on the cell (set once at
// Solve entry, not on the hot path).
func (c *SolverCell) SetCNF(vars, clauses int64) {
	if c == nil {
		return
	}
	c.cnfVars.Store(vars)
	c.cnfClauses.Store(clauses)
}

// Solvers snapshots every live solver, ordered by label then start.
func (r *Recorder) Solvers() []SolverView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cells := make([]*SolverCell, 0, len(r.cells))
	for _, c := range r.cells {
		cells = append(cells, c)
	}
	r.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].label != cells[j].label {
			return cells[i].label < cells[j].label
		}
		return cells[i].id < cells[j].id
	})
	now := time.Now()
	out := make([]SolverView, 0, len(cells))
	for _, c := range cells {
		age := now.Sub(c.start)
		last := time.Duration(c.last.Load())
		v := SolverView{
			Label:        c.label,
			Worker:       c.worker,
			AgeMS:        age.Milliseconds(),
			StallMS:      (age - last).Milliseconds(),
			Conflicts:    c.conflicts.Load(),
			Decisions:    c.decisions.Load(),
			Propagations: c.props.Load(),
			Learned:      c.learned.Load(),
			CNFVars:      c.cnfVars.Load(),
			CNFClauses:   c.cnfClauses.Load(),
		}
		if secs := age.Seconds(); secs > 0 {
			v.ConflictRate = float64(v.Conflicts) / secs
		}
		out = append(out, v)
	}
	return out
}

// Stalled returns the live solvers whose last heartbeat is older than
// threshold. A search that has not beaten since it registered counts
// from its start time, so a solver stuck before its first poll still
// trips the watchdog.
func (r *Recorder) Stalled(threshold time.Duration) []SolverView {
	var out []SolverView
	for _, v := range r.Solvers() {
		if time.Duration(v.StallMS)*time.Millisecond > threshold {
			out = append(out, v)
		}
	}
	return out
}

// Subscription is a live event feed. Read C until Close; events arrive
// in emission order, with drops (never blocking the emitters) counted.
type Subscription struct {
	r   *Recorder
	id  uint64
	sub *subscriber
}

// C is the event channel. It is never closed by the recorder; callers
// multiplex it with their own done signal.
func (s *Subscription) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.sub.ch
}

// Dropped reports events missed because the subscriber buffer was full.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.sub.dropped.Load()
}

// Close detaches the subscription.
func (s *Subscription) Close() {
	if s == nil || s.r == nil {
		return
	}
	s.r.mu.Lock()
	delete(s.r.subs, s.id)
	s.r.mu.Unlock()
}

// Subscribe attaches a live listener. scope filters events to that
// label and its descendants ("" = everything); buffer is the channel
// depth (minimum 16). Returns nil on a nil recorder.
func (r *Recorder) Subscribe(scope string, buffer int) *Subscription {
	if r == nil {
		return nil
	}
	if buffer < 16 {
		buffer = 16
	}
	sub := &subscriber{scope: scope, ch: make(chan Event, buffer)}
	r.mu.Lock()
	r.subSeq++
	id := r.subSeq
	r.subs[id] = sub
	r.mu.Unlock()
	return &Subscription{r: r, id: id, sub: sub}
}
