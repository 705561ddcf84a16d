package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/obs"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Event string
	Data  string
}

// readSSE parses an SSE stream until EOF or a "done" event.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Event != "" {
				out = append(out, cur)
				if cur.Event == "done" {
					return out
				}
				cur = sseEvent{}
			}
		}
	}
	return out
}

// TestDebugzEndpoints runs a real repair through the production seam
// and checks each /debugz endpoint against the recorder state it left
// behind: the ring dump validates as JSONL, the scope filter narrows it
// to one job, the span tree and solver table drain to empty, and the
// watchdog reports no stalled jobs.
func TestDebugzEndpoints(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	s := newTestServer(t, Config{Slots: 1, Obs: obs.Scope{Rec: rec}}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"source":` + jsonString(buggyCounterSrc) + `,"trace":` + jsonString(counterTraceCSV) + `}`
	resp, err := http.Post(ts.URL+"/v1/repair?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.State != StateDone || v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("job = %+v", v)
	}
	if v.RunMS < 0 || v.QueueWaitMS < 0 {
		t.Fatalf("latency split negative: %+v", v)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// /debugz/ring: full dump validates; scoped dump only has job lines.
	ring := get("/debugz/ring")
	if err := obs.ValidateRingJSONL(ring); err != nil {
		t.Fatalf("/debugz/ring does not validate: %v", err)
	}
	if !strings.Contains(string(ring), `"kind":"queue"`) {
		t.Fatal("/debugz/ring has no queue events")
	}
	scoped := get("/debugz/ring?scope=" + v.ID)
	if len(strings.TrimSpace(string(scoped))) == 0 {
		t.Fatal("scoped ring dump empty")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(scoped)), "\n") {
		var ev struct {
			Scope string `json:"scope"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("scoped ring line %q: %v", line, err)
		}
		if !scopeMatches(v.ID, ev.Scope) {
			t.Fatalf("scoped dump leaked scope %q (filter %s)", ev.Scope, v.ID)
		}
	}

	// /debugz/spans: the pipeline is idle, so the live tree is empty.
	var spans []*obs.SpanView
	if err := json.Unmarshal(get("/debugz/spans"), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("live spans after completion: %+v", spans)
	}

	// /debugz/solvers: no live cells, nothing stalled.
	var sv solversJSON
	if err := json.Unmarshal(get("/debugz/solvers"), &sv); err != nil {
		t.Fatal(err)
	}
	if len(sv.Solvers) != 0 || len(sv.StalledJobs) != 0 {
		t.Fatalf("solvers after completion: %+v", sv)
	}
	if sv.StallAfter == "" {
		t.Fatal("stall_after missing")
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestJobEventsSSE streams one job's events end to end with controlled
// timing: the repair parks until the stream is attached, then emits a
// progress event before finishing, so the stream must deliver state →
// progress event → done in order.
func TestJobEventsSSE(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	started := make(chan string, 1)
	release := make(chan struct{})
	var fn repairFunc = func(ctx context.Context, job *Job) *RepairResult {
		started <- job.ID
		<-release
		rec.Emit(obs.EvProgress, "window.solve", job.ID+"/first_counter/w1-2", 0,
			obs.Int("cycle_start", 1), obs.Int("cycle_end", 2))
		return &RepairResult{Status: "repaired", FirstFailure: 1}
	}
	s := newTestServer(t, Config{Slots: 1, Obs: obs.Scope{Rec: rec}}, fn)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read the leading state event before releasing the repair: it is
	// written after the subscription attaches, so everything emitted
	// from here on must reach the stream.
	events := make(chan []sseEvent, 1)
	go func() { events <- readSSE(t, resp.Body) }()
	time.Sleep(10 * time.Millisecond) // let the handler write "state"
	close(release)

	var evs []sseEvent
	select {
	case evs = <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not finish")
	}
	if len(evs) < 3 {
		t.Fatalf("got %d SSE events: %+v", len(evs), evs)
	}
	if evs[0].Event != "state" {
		t.Fatalf("first event = %q", evs[0].Event)
	}
	var first JobView
	if err := json.Unmarshal([]byte(evs[0].Data), &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != job.ID {
		t.Fatalf("state event for job %q, want %q", first.ID, job.ID)
	}
	if last := evs[len(evs)-1]; last.Event != "done" {
		t.Fatalf("last event = %q", last.Event)
	} else {
		var final JobView
		if err := json.Unmarshal([]byte(last.Data), &final); err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Result == nil {
			t.Fatalf("done event = %+v", final)
		}
	}
	sawProgress := false
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.Event != "event" {
			t.Fatalf("middle event = %q", ev.Event)
		}
		var wire eventWire
		if err := json.Unmarshal([]byte(ev.Data), &wire); err != nil {
			t.Fatal(err)
		}
		if wire.Kind == obs.EvProgress && wire.Name == "window.solve" {
			sawProgress = true
			if wire.Attrs["cycle_start"] != float64(1) {
				t.Fatalf("progress attrs = %+v", wire.Attrs)
			}
		}
		if !scopeMatches(job.ID, wire.Scope) {
			t.Fatalf("streamed event outside job scope: %+v", wire)
		}
	}
	if !sawProgress {
		t.Fatalf("no window.solve progress event in stream: %+v", evs)
	}
}

// TestJobEventsSSERealEngine follows a real repair of the smoke design
// over /v1/jobs/{id}/events and then inspects the /debugz endpoints it
// left behind. The job is held until the stream attaches, so the stream
// sees the whole run: the inner engine layers (encode, smt.check,
// sat.solve) arrive as span_end events in the job's scope, not just the
// repair/portfolio/attempt/window spans.
func TestJobEventsSSERealEngine(t *testing.T) {
	src, err := os.ReadFile("../../testdata/smoke/counter_buggy.v")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile("../../testdata/smoke/counter_tb.csv")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	s := newTestServer(t, Config{Slots: 1, Obs: obs.Scope{Rec: rec}}, nil)
	release := make(chan struct{})
	engine := s.repair
	s.repair = func(ctx context.Context, job *Job) *RepairResult {
		<-release
		return engine(ctx, job)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"source":` + jsonString(string(src)) + `,"trace":` + jsonString(string(tb)) + `,"options":{"seed":3}}`
	resp, err := http.Post(ts.URL+"/v1/repair", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := make(chan []sseEvent, 1)
	go func() { events <- readSSE(t, stream.Body) }()
	time.Sleep(10 * time.Millisecond) // let the handler write "state"
	close(release)
	var evs []sseEvent
	select {
	case evs = <-events:
	case <-time.After(60 * time.Second):
		t.Fatal("SSE stream did not finish")
	}
	if len(evs) < 2 || evs[0].Event != "state" || evs[len(evs)-1].Event != "done" {
		t.Fatalf("stream does not run state → done: %d events", len(evs))
	}
	var final JobView
	if err := json.Unmarshal([]byte(evs[len(evs)-1].Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Status != "repaired" {
		t.Fatalf("done view = %+v", final)
	}
	ended := map[string]int{}
	for _, ev := range evs[1 : len(evs)-1] {
		var wire eventWire
		if err := json.Unmarshal([]byte(ev.Data), &wire); err != nil {
			t.Fatal(err)
		}
		if !scopeMatches(v.ID, wire.Scope) {
			t.Fatalf("streamed event outside job scope: %+v", wire)
		}
		if wire.Kind == obs.EvSpanEnd {
			ended[wire.Name]++
		}
	}
	for _, layer := range []string{"encode", "smt.check", "sat.solve"} {
		if ended[layer] == 0 {
			t.Errorf("no %s span_end in the job's stream: %v", layer, ended)
		}
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return data
	}
	var spans []*obs.SpanView
	if err := json.Unmarshal(get("/debugz/spans"), &spans); err != nil {
		t.Fatalf("/debugz/spans is not a span list: %v", err)
	}
	ring := get("/debugz/ring")
	for _, kind := range []string{obs.EvQueue, obs.EvSpanBegin, obs.EvSpanEnd} {
		if !strings.Contains(string(ring), `"kind":"`+kind+`"`) {
			t.Errorf("/debugz/ring has no %s events", kind)
		}
	}
	solvers := get("/debugz/solvers")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(solvers, &keys); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"solvers", "stalled_jobs", "stall_after"} {
		if _, ok := keys[key]; !ok {
			t.Errorf("/debugz/solvers lacks %q: %s", key, solvers)
		}
	}
	var sv solversJSON
	if err := json.Unmarshal(solvers, &sv); err != nil {
		t.Fatal(err)
	}
	if len(sv.StalledJobs) != 0 {
		t.Fatalf("watchdog flagged jobs on an idle server: %v", sv.StalledJobs)
	}
}

// TestJobEventsSSEUnknownJob: streaming an unknown id is a JSON 404,
// not a hung stream.
func TestJobEventsSSEUnknownJob(t *testing.T) {
	s := newTestServer(t, Config{Obs: obs.Scope{Rec: obs.NewRecorder(64)}}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestStalledWatchdog: a running job whose only solver cell stops
// heartbeating trips StalledJobs and the serve.jobs.stalled gauge;
// completion clears it. A fresh cell that keeps beating never trips.
func TestStalledWatchdog(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	release := make(chan struct{})
	cellUp := make(chan struct{})
	var fn repairFunc = func(ctx context.Context, job *Job) *RepairResult {
		cell := rec.RegisterSolver(job.ID+"/first_counter", 0)
		defer cell.Close()
		close(cellUp)
		<-release // parked: no heartbeats from here on
		return &RepairResult{Status: "repaired", FirstFailure: 1}
	}
	cfg := Config{Slots: 1, StallAfter: 50 * time.Millisecond, Obs: obs.Scope{Rec: rec}}
	s := newTestServer(t, cfg, fn)

	job, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-cellUp
	if got := s.StalledJobs(); len(got) != 0 {
		t.Fatalf("job stalled instantly: %v", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if stalled := s.StalledJobs(); len(stalled) == 1 && stalled[0] == job.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reported stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The watchdog goroutine publishes the gauge on its own tick.
	for s.Metrics().Gauge("serve.jobs.stalled") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("serve.jobs.stalled gauge never rose")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(release)
	waitDone(t, job)
	if got := s.StalledJobs(); len(got) != 0 {
		t.Fatalf("stalled jobs after completion: %v", got)
	}
}

// TestQueueEventsInRing: admit/start/done transitions land in the ring
// under the job's scope, including the cached-resubmit short circuit.
func TestQueueEventsInRing(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	var fn repairFunc = func(ctx context.Context, job *Job) *RepairResult {
		return &RepairResult{Status: "repaired", FirstFailure: 1}
	}
	s := newTestServer(t, Config{Slots: 1, Obs: obs.Scope{Rec: rec}}, fn)

	job, err := s.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	names := map[string]int{}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvQueue && scopeMatches(job.ID, ev.Scope) {
			names[ev.Name]++
		}
	}
	for _, want := range []string{"job.admit", "job.start", "job.done"} {
		if names[want] != 1 {
			t.Fatalf("queue events for job = %+v, want one %s", names, want)
		}
	}

	// A resubmission is served from the result cache: admit+done, no start.
	cached, err := s.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if cv := cached.View(); !cv.Cached {
		t.Fatalf("resubmit not cached: %+v", cv)
	}
	names = map[string]int{}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvQueue && scopeMatches(cached.ID, ev.Scope) {
			names[ev.Name]++
		}
	}
	if names["job.admit"] != 1 || names["job.done"] != 1 || names["job.start"] != 0 {
		t.Fatalf("cached-job queue events = %+v", names)
	}
}
