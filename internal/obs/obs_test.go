package obs

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestNilSafety drives the entire disabled surface: nil tracer, nil
// span, nil registry, zero scope. Any panic fails the test.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(nil, "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.SetBool("k", true)
	sp.End()
	if got := tr.PhaseTotals(); len(got) != 0 {
		t.Fatalf("nil tracer has phases: %v", got)
	}

	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	r.Add("c", 1)
	r.SetGauge("g", 1)
	r.MaxGauge("g", 2)
	r.Observe("h", 3)
	r.ObserveDuration("h", time.Second)
	if r.Counter("c") != 0 || r.Gauge("g") != 0 {
		t.Fatal("nil registry returned values")
	}

	var sc Scope
	child := sc.Start("a").StartKeyed("b", "k")
	if child.Span != nil {
		t.Fatal("zero scope opened a span")
	}
	child.Span.SetInt("k", 1)
	child.End()

	ctx := NewContext(context.Background(), sc)
	if FromContext(ctx) != (Scope{}) {
		t.Fatal("zero scope did not round-trip")
	}
	if FromContext(context.Background()) != (Scope{}) || FromContext(nil) != (Scope{}) {
		t.Fatal("absent scope is not the zero scope")
	}
}

// buildTrace records a small deterministic span tree, optionally with
// different sleep amounts so two builds have different timestamps.
func buildTrace(pause time.Duration) *Tracer {
	tr := New()
	root := Scope{Tracer: tr}.Start("repair")
	root.Span.SetStr("design", "counter")
	pre := root.Start("preprocess")
	time.Sleep(pause)
	pre.End()
	for i := 0; i < 2; i++ {
		lane := root
		lane.Worker = i
		at := lane.StartKeyed("attempt", []string{"p0:guard", "p0:literal"}[i])
		win := at.Start("window")
		win.Span.SetInt("start", int64(i))
		win.Span.SetInt("time_wall", time.Now().UnixNano()) // must be scrubbed
		win.End()
		at.End()
	}
	root.End()
	return tr
}

func TestJSONLExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace(0).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSONL(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
}

func TestValidateJSONLRejectsOpenSpan(t *testing.T) {
	// Spans reach the tracer only when they end, so an unended span is
	// absent from the export rather than written open...
	tr := New()
	open := tr.Start(nil, "repair")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"repair"`) {
		t.Fatalf("unended span exported:\n%s", buf.String())
	}
	open.End()
	// ...and a journal that does carry an open span (a foreign or
	// hand-edited file) is still rejected.
	journal := `{"type":"trace","version":1,"spans":1}` + "\n" +
		`{"type":"span","id":1,"parent":0,"name":"repair","path":"/repair#0000","worker":0,"start_us":0,"dur_us":0,"open":true}` + "\n"
	if err := ValidateJSONL([]byte(journal)); err == nil || !strings.Contains(err.Error(), "open") {
		t.Fatalf("open span not rejected: %v", err)
	}
}

func TestValidateJSONLRejectsGarbage(t *testing.T) {
	for _, data := range []string{"", "not json\n", `{"type":"trace","version":9,"spans":0}` + "\n"} {
		if err := ValidateJSONL([]byte(data)); err == nil {
			t.Fatalf("garbage %q validated", data)
		}
	}
}

// TestScrubbedExportsDeterministic builds the same span tree twice with
// different real timings and checks both exporters agree byte-for-byte
// after scrubbing — the property the cross-worker golden test relies on.
func TestScrubbedExportsDeterministic(t *testing.T) {
	a, b := buildTrace(0), buildTrace(2*time.Millisecond)
	var ja, jb, ca, cb bytes.Buffer
	if err := a.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	sa, err := ScrubJSONL(ja.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ScrubJSONL(jb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("scrubbed JSONL differs:\n%s\n--- vs ---\n%s", sa, sb)
	}
	if strings.Contains(string(sa), "time_wall") || strings.Contains(string(sa), "start_us") {
		t.Fatalf("volatile keys survived scrubbing:\n%s", sa)
	}
	if err := a.WriteChromeTrace(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	ga, err := ScrubChromeTrace(ca.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := ScrubChromeTrace(cb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, gb) {
		t.Fatalf("scrubbed Chrome trace differs:\n%s\n--- vs ---\n%s", ga, gb)
	}
}

// TestChromeTraceShape checks the trace_event specifics Perfetto needs:
// a thread_name metadata event per worker and "X" complete events.
func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace(0).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph": "M"`, `"ph": "X"`, `"name": "thread_name"`, `"name": "worker 1"`, `"name": "attempt"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("Chrome trace missing %s:\n%s", want, out)
		}
	}
}

func TestPhaseTotalsAndSummary(t *testing.T) {
	tr := buildTrace(0)
	totals := tr.PhaseTotals()
	if totals["attempt"].Count != 2 {
		t.Fatalf("attempt count = %d, want 2", totals["attempt"].Count)
	}
	if totals["repair"].Count != 1 || totals["window"].Count != 2 {
		t.Fatalf("unexpected totals: %v", totals)
	}
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "attempt") || !strings.Contains(buf.String(), "phase") {
		t.Fatalf("summary missing content:\n%s", buf.String())
	}
}

func TestRegistryDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Add("sat.conflicts", 41)
		r.Add("sat.conflicts", 1)
		r.Add("repair.runs", 1)
		r.SetGauge("g", 2.5)
		r.MaxGauge("m", 1)
		r.MaxGauge("m", 7)
		r.MaxGauge("m", 3)
		r.Observe("h", 4)
		r.Observe("h", 600)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("registry JSON not deterministic:\n%s\n--- vs ---\n%s", a.String(), b.String())
	}
	r := build()
	if r.Counter("sat.conflicts") != 42 {
		t.Fatalf("counter = %d, want 42", r.Counter("sat.conflicts"))
	}
	if r.Gauge("m") != 7 {
		t.Fatalf("max gauge = %v, want 7", r.Gauge("m"))
	}
	if !strings.Contains(a.String(), "histogram_bounds") {
		t.Fatalf("bounds missing:\n%s", a.String())
	}
}

// TestTraceSchemaFile validates an externally produced JSONL trace when
// RTLREPAIR_TRACE_SCHEMA_FILE is set. The CI obs-smoke job runs the
// rtlrepair CLI with -trace-out and then points this test at the output.
func TestTraceSchemaFile(t *testing.T) {
	path := os.Getenv("RTLREPAIR_TRACE_SCHEMA_FILE")
	if path == "" {
		t.Skip("RTLREPAIR_TRACE_SCHEMA_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSONL(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if _, err := ScrubJSONL(data); err != nil {
		t.Fatalf("%s: scrub: %v", path, err)
	}
	t.Logf("%s: schema ok (%d bytes)", path, len(data))
}
