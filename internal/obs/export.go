package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The exporters all work off the same sorted snapshot: spans ordered by
// hierarchical path, ids re-assigned 1..n in that order. Because paths
// are deterministic (sequence numbers for sequential children, caller
// keys for concurrent ones), two runs doing the same work export the
// same bytes once Scrub* removes timestamps and worker ids — regardless
// of goroutine scheduling or worker count.

// jsonlHeader is the first line of a JSONL trace.
type jsonlHeader struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
	Spans   int    `json:"spans"`
}

// jsonlSpan is one span line of a JSONL trace.
type jsonlSpan struct {
	Type    string         `json:"type"`
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0 for root spans
	Name    string         `json:"name"`
	Path    string         `json:"path"`
	Worker  int            `json:"worker"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Open    bool           `json:"open,omitempty"` // WriteJSONL exports ended spans only; ValidateJSONL rejects open ones
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// AttrMap renders attributes as a JSON-friendly map (nil when empty).
// Serving layers use it to encode ring events without re-implementing
// the Attr string/int split.
func AttrMap(attrs []Attr) map[string]any { return attrMap(attrs) }

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

// WriteJSONL writes the trace as a JSON-lines event journal: one header
// line, then one line per span in path order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	spans := t.snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Type: "trace", Version: 1, Spans: len(spans)}); err != nil {
		return err
	}
	ids := make(map[string]int, len(spans))
	for i, ss := range spans {
		ids[ss.path] = i + 1
	}
	for i, ss := range spans {
		line := jsonlSpan{
			Type:    "span",
			ID:      i + 1,
			Parent:  ids[ss.parent],
			Name:    ss.name,
			Path:    ss.path,
			Worker:  ss.worker,
			StartUS: ss.start.Microseconds(),
			DurUS:   ss.dur.Microseconds(),
			Attrs:   attrMap(ss.attrs),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace_event entry ("X" complete events plus
// "M" thread-name metadata). The output loads in chrome://tracing and
// Perfetto; tid is the portfolio worker id, so workers appear as lanes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the trace in Chrome trace_event JSON (an array
// of complete events). Load it via chrome://tracing or ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.snapshot()
	workers := map[int]bool{}
	for _, ss := range spans {
		workers[ss.worker] = true
	}
	wids := make([]int, 0, len(workers))
	for id := range workers {
		wids = append(wids, id)
	}
	sort.Ints(wids)
	events := make([]chromeEvent, 0, len(spans)+len(wids))
	for _, id := range wids {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", id)},
		})
	}
	for _, ss := range spans {
		args := attrMap(ss.attrs)
		if args == nil {
			args = map[string]any{}
		}
		args["path"] = ss.path
		events = append(events, chromeEvent{
			Name: ss.name,
			Cat:  "obs",
			Ph:   "X",
			TS:   ss.start.Microseconds(),
			Dur:  ss.dur.Microseconds(),
			PID:  1,
			TID:  ss.worker,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}

// WriteSummary writes a plain-text per-phase table: spans aggregated by
// name, sorted by total time descending. This replaces the ad-hoc -v
// dumps as the human-readable view of where a run spent its time.
func (t *Tracer) WriteSummary(w io.Writer) error {
	totals := t.PhaseTotals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := totals[names[i]].Total, totals[names[j]].Total
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-24s %8s %12s %12s\n", "phase", "count", "total", "mean")
	for _, name := range names {
		ps := totals[name]
		mean := ps.Total
		if ps.Count > 0 {
			mean = ps.Total / time.Duration(ps.Count)
		}
		fmt.Fprintf(bw, "%-24s %8d %12s %12s\n", name, ps.Count, ps.Total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	return bw.Flush()
}

// volatileTopLevel are the keys Scrub* removes: wall-clock values and
// anything that legitimately varies with worker placement or count.
var volatileTopLevel = map[string]bool{
	"start_us": true, "dur_us": true, "worker": true, // JSONL
	"ts": true, "dur": true, "tid": true, // Chrome
	"workers": true, // portfolio span attr: the configured worker count
	"steals":  true, // portfolio span attr: scheduler steals vary with timing
	"seq":     true, // ring events: global emission order varies with scheduling
	"t_us":    true, // ring events: wall clock
	"dropped": true, // ring header: wrap count varies with run length
}

// scrubValue removes volatile keys from a decoded JSON value, in place
// where possible. Attr keys prefixed "time_" are removed too, so
// instrumentation may record wall-clock attrs without breaking golden
// diffs.
func scrubValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k := range x {
			if volatileTopLevel[k] || strings.HasPrefix(k, "time_") {
				delete(x, k)
				continue
			}
			x[k] = scrubValue(x[k])
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrubValue(x[i])
		}
		return x
	}
	return v
}

// scrubLines scrubs every non-blank line of a JSONL document. Map
// re-marshalling sorts keys, so each returned line is canonical.
func scrubLines(data []byte) ([][]byte, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var lines [][]byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("obs: scrub: %w", err)
		}
		b, err := json.Marshal(scrubValue(v))
		if err != nil {
			return nil, err
		}
		lines = append(lines, b)
	}
	return lines, sc.Err()
}

func joinLines(lines [][]byte) []byte {
	var out bytes.Buffer
	for _, l := range lines {
		out.Write(l)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// ScrubJSONL removes timestamps and worker ids from a JSONL trace,
// returning a deterministic form suitable for byte comparison across
// runs and worker counts.
func ScrubJSONL(data []byte) ([]byte, error) {
	lines, err := scrubLines(data)
	if err != nil {
		return nil, err
	}
	return joinLines(lines), nil
}

// ScrubChromeTrace removes timestamps and thread ids from a Chrome
// trace_event export, for the same byte-comparison purpose. Thread-name
// metadata events are dropped wholesale: they enumerate worker lanes,
// which legitimately vary with the worker count.
func ScrubChromeTrace(data []byte) ([]byte, error) {
	var v []any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("obs: scrub: %w", err)
	}
	kept := v[:0]
	for _, ev := range v {
		if m, ok := ev.(map[string]any); ok && m["ph"] == "M" {
			continue
		}
		kept = append(kept, ev)
	}
	return json.Marshal(scrubValue(any(kept)))
}

// ringHeader is the first line of a flight-recorder ring dump.
type ringHeader struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// ringEvent is one event line of a ring dump.
type ringEvent struct {
	Type   string         `json:"type"`
	Seq    uint64         `json:"seq"`
	TUS    int64          `json:"t_us"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Scope  string         `json:"scope,omitempty"`
	Worker int            `json:"worker,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// ringKinds is the closed set of event kinds ValidateRingJSONL accepts.
var ringKinds = map[string]bool{
	EvSpanBegin: true, EvSpanEnd: true, EvHeartbeat: true,
	EvQueue: true, EvProgress: true,
}

// WriteRingJSONL dumps the flight-recorder ring as a JSONL journal: one
// header line, then one line per event, oldest first. This is the
// /debugz/ring wire format and the input format cmd/tracediff accepts
// alongside trace journals.
func (r *Recorder) WriteRingJSONL(w io.Writer) error {
	events := r.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(ringHeader{Type: "ring", Version: 1, Events: len(events), Dropped: r.Dropped()}); err != nil {
		return err
	}
	for _, ev := range events {
		line := ringEvent{
			Type:   "event",
			Seq:    ev.Seq,
			TUS:    ev.T.Microseconds(),
			Kind:   ev.Kind,
			Name:   ev.Name,
			Scope:  ev.Scope,
			Worker: ev.Worker,
			Attrs:  attrMap(ev.Attrs),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ValidateRingJSONL schema-checks a ring dump: a well-formed header
// whose event count matches, strictly increasing sequence numbers,
// known event kinds, named events, and non-negative times. Heartbeat
// events must carry their counter attrs (conflicts, propagations).
func ValidateRingJSONL(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		return fmt.Errorf("obs: empty ring dump")
	}
	var hdr ringHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("obs: ring header: %w", err)
	}
	if hdr.Type != "ring" || hdr.Version != 1 {
		return fmt.Errorf("obs: bad ring header %+v", hdr)
	}
	n := 0
	lastSeq := uint64(0)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ringEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("obs: ring event line %d: %w", n+1, err)
		}
		n++
		if ev.Type != "event" {
			return fmt.Errorf("obs: ring line %d: type %q", n, ev.Type)
		}
		if ev.Seq <= lastSeq {
			return fmt.Errorf("obs: ring line %d: seq %d not after %d", n, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if !ringKinds[ev.Kind] {
			return fmt.Errorf("obs: ring line %d: unknown kind %q", n, ev.Kind)
		}
		if ev.Name == "" {
			return fmt.Errorf("obs: ring line %d: empty name", n)
		}
		if ev.TUS < 0 {
			return fmt.Errorf("obs: ring line %d: negative time", n)
		}
		if ev.Kind == EvHeartbeat {
			for _, key := range []string{"conflicts", "propagations"} {
				if _, ok := ev.Attrs[key]; !ok {
					return fmt.Errorf("obs: ring line %d: heartbeat missing %q attr", n, key)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != hdr.Events {
		return fmt.Errorf("obs: ring header says %d events, found %d", hdr.Events, n)
	}
	return nil
}

// ScrubRingJSONL canonicalizes a ring dump for byte comparison across
// runs and worker counts: volatile fields (seq, t_us, worker, time_*
// attrs, the header's drop count) are removed, and event lines are
// sorted lexicographically — emission order is schedule-dependent, but
// the scrubbed multiset of events is not, so the sorted form is the
// deterministic export the cross-worker golden tests diff.
func ScrubRingJSONL(data []byte) ([]byte, error) {
	lines, err := scrubLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("obs: scrub ring: empty dump")
	}
	events := lines[1:]
	sort.Slice(events, func(i, j int) bool { return bytes.Compare(events[i], events[j]) < 0 })
	return joinLines(lines), nil
}

// ValidateJSONL schema-checks a JSONL trace export: a well-formed
// header, dense ids in path order, parents that precede their children
// with prefix-consistent paths, and no span left open.
func ValidateJSONL(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		return fmt.Errorf("obs: empty trace")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("obs: header: %w", err)
	}
	if hdr.Type != "trace" || hdr.Version != 1 {
		return fmt.Errorf("obs: bad header %+v", hdr)
	}
	paths := map[int]string{}
	n := 0
	lastPath := ""
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sp jsonlSpan
		if err := json.Unmarshal(line, &sp); err != nil {
			return fmt.Errorf("obs: span line %d: %w", n+1, err)
		}
		n++
		if sp.Type != "span" {
			return fmt.Errorf("obs: line %d: type %q", n, sp.Type)
		}
		if sp.ID != n {
			return fmt.Errorf("obs: line %d: id %d, want %d", n, sp.ID, n)
		}
		if sp.Path <= lastPath {
			return fmt.Errorf("obs: span %d: path %q not strictly after %q", sp.ID, sp.Path, lastPath)
		}
		lastPath = sp.Path
		if sp.Open {
			return fmt.Errorf("obs: span %d (%s) left open", sp.ID, sp.Path)
		}
		if sp.DurUS < 0 || sp.StartUS < 0 {
			return fmt.Errorf("obs: span %d (%s): negative time", sp.ID, sp.Path)
		}
		if sp.Parent == 0 {
			if strings.Count(sp.Path, "/") != 1 {
				return fmt.Errorf("obs: span %d (%s): root span with nested path", sp.ID, sp.Path)
			}
		} else {
			pp, ok := paths[sp.Parent]
			if !ok || sp.Parent >= sp.ID {
				return fmt.Errorf("obs: span %d (%s): parent %d not seen before it", sp.ID, sp.Path, sp.Parent)
			}
			if !strings.HasPrefix(sp.Path, pp+"/") {
				return fmt.Errorf("obs: span %d: path %q not nested under parent %q", sp.ID, sp.Path, pp)
			}
		}
		paths[sp.ID] = sp.Path
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != hdr.Spans {
		return fmt.Errorf("obs: header says %d spans, found %d", hdr.Spans, n)
	}
	return nil
}
