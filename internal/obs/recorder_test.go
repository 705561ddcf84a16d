package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.Emit(EvQueue, "admit", "job", 0)
	if sp := (Scope{Rec: r}).Start("x").Span; sp != nil {
		t.Error("nil recorder opened a span")
	}
	if r.Events() != nil || r.LiveSpans() != nil || r.Solvers() != nil {
		t.Error("nil recorder returned non-nil snapshots")
	}
	var c *SolverCell
	c.Beat(1, 2, 3, 4)
	c.SetCNF(1, 2)
	c.Close()
	if sub := r.Subscribe("", 4); sub != nil {
		t.Error("nil recorder returned a subscription")
	}
	var sc Scope
	sc.Event(EvProgress, "noop")
	sc = sc.Start("phase")
	sc.End()
}

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Emit(EvProgress, fmt.Sprintf("ev%02d", i), "s", 0)
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(evs))
	}
	if evs[0].Name != "ev24" || evs[15].Name != "ev39" {
		t.Fatalf("ring window [%s..%s], want [ev24..ev39]", evs[0].Name, evs[15].Name)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if got := r.Dropped(); got != 24 {
		t.Fatalf("Dropped = %d, want 24", got)
	}
}

func TestRecorderLiveSpanTree(t *testing.T) {
	r := NewRecorder(64)
	root := Scope{Rec: r, Label: "fsm_w1"}.Start("repair")
	child := root.Start("portfolio")
	lane := child.WithLabel("p0:cond")
	lane.Worker = 2
	grand := lane.Start("attempt")
	grand.Span.SetStr("template", "cond")

	roots := r.LiveSpans()
	if len(roots) != 1 || roots[0].Name != "repair" {
		t.Fatalf("roots = %+v, want single repair", roots)
	}
	p := roots[0].Children
	if len(p) != 1 || p[0].Name != "portfolio" {
		t.Fatalf("children = %+v", p)
	}
	a := p[0].Children
	if len(a) != 1 || a[0].Name != "attempt" || a[0].Worker != 2 || a[0].Attrs["template"] != "cond" {
		t.Fatalf("attempt node = %+v", a)
	}

	grand.End()
	child.End()
	if got := r.LiveSpans(); len(got) != 1 || len(got[0].Children) != 0 {
		t.Fatalf("after ends: %+v, want bare repair root", got)
	}
	root.End()
	root.End() // double End is a no-op
	if got := r.LiveSpans(); len(got) != 0 {
		t.Fatalf("after all ends: %+v, want empty", got)
	}

	// The ring saw paired begin/end events, ends carrying durations and
	// the span's attrs.
	var begins, ends int
	for _, ev := range r.Events() {
		switch ev.Kind {
		case EvSpanBegin:
			begins++
		case EvSpanEnd:
			ends++
			m := attrMap(ev.Attrs)
			if _, ok := m["time_dur_us"]; !ok {
				t.Errorf("span_end %q lacks time_dur_us", ev.Name)
			}
			if ev.Name == "attempt" && (m["template"] != "cond" || ev.Scope != "fsm_w1/p0:cond" || ev.Worker != 2) {
				t.Errorf("attempt span_end = %+v", ev)
			}
		}
	}
	if begins != 3 || ends != 3 {
		t.Fatalf("begin/end events = %d/%d, want 3/3", begins, ends)
	}
}

func TestRecorderOrphanChildSurvivesParentEnd(t *testing.T) {
	r := NewRecorder(64)
	root := Scope{Rec: r}.Start("repair")
	child := root.Start("window")
	root.End() // parent ends first (cancellation paths can do this)
	roots := r.LiveSpans()
	if len(roots) != 1 || roots[0].Name != "window" {
		t.Fatalf("orphan child not promoted to root: %+v", roots)
	}
	child.End()
}

func TestRecorderSubscribeFilters(t *testing.T) {
	r := NewRecorder(64)
	sub := r.Subscribe("job1", 16)
	defer sub.Close()
	r.Emit(EvQueue, "admit", "job1", 0)
	r.Emit(EvQueue, "admit", "job2", 0)
	r.Emit(EvHeartbeat, "sat.solve", "job1/fsm/p0:cond", 0, Int("conflicts", 5), Int("propagations", 9))
	r.Emit(EvQueue, "admit", "job10", 0) // prefix but not a path component

	var got []string
	for len(got) < 2 {
		select {
		case ev := <-sub.C():
			got = append(got, ev.Scope)
		case <-time.After(time.Second):
			t.Fatalf("timed out, got %v", got)
		}
	}
	select {
	case ev := <-sub.C():
		t.Fatalf("unexpected extra event %+v", ev)
	default:
	}
	if got[0] != "job1" || got[1] != "job1/fsm/p0:cond" {
		t.Fatalf("scopes = %v", got)
	}
}

func TestRecorderSubscribeOverflowDoesNotBlock(t *testing.T) {
	r := NewRecorder(64)
	sub := r.Subscribe("", 16)
	defer sub.Close()
	for i := 0; i < 100; i++ {
		r.Emit(EvProgress, "p", "", 0)
	}
	if d := sub.Dropped(); d != 100-16 {
		t.Fatalf("Dropped = %d, want %d", d, 100-16)
	}
}

func TestRecorderSolverCells(t *testing.T) {
	r := NewRecorder(64)
	c := r.RegisterSolver("job1/fsm_w1/p0:cond/win0-8", 3)
	c.SetCNF(23000, 67000)
	c.Beat(100, 200, 5000, 90)

	views := r.Solvers()
	if len(views) != 1 {
		t.Fatalf("solvers = %d, want 1", len(views))
	}
	v := views[0]
	if v.Label != "job1/fsm_w1/p0:cond/win0-8" || v.Worker != 3 ||
		v.Conflicts != 100 || v.Decisions != 200 || v.Propagations != 5000 ||
		v.Learned != 90 || v.CNFVars != 23000 || v.CNFClauses != 67000 {
		t.Fatalf("view = %+v", v)
	}

	// Freshly beaten: not stalled at any sane threshold.
	if st := r.Stalled(time.Minute); len(st) != 0 {
		t.Fatalf("stalled = %+v, want none", st)
	}
	// Zero threshold: everything with any gap counts — wait for one.
	time.Sleep(2 * time.Millisecond)
	if st := r.Stalled(time.Millisecond); len(st) != 1 {
		t.Fatalf("stalled at 1ms = %d, want 1", len(st))
	}
	c.Close()
	if got := r.Solvers(); len(got) != 0 {
		t.Fatalf("after close: %+v", got)
	}
}

func TestRecorderConcurrentEmitters(t *testing.T) {
	r := NewRecorder(256)
	sub := r.Subscribe("", 1024)
	defer sub.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := Scope{Rec: r, Label: fmt.Sprintf("w%d", w), Worker: w}.Start("span")
				cell := r.RegisterSolver(fmt.Sprintf("w%d/solve", w), w)
				cell.Beat(int64(i), 0, 0, 0)
				cell.Close()
				h.End()
			}
		}(w)
	}
	wg.Wait()
	if got := r.LiveSpans(); len(got) != 0 {
		t.Fatalf("live spans leaked: %d", len(got))
	}
	if got := r.Solvers(); len(got) != 0 {
		t.Fatalf("cells leaked: %d", len(got))
	}
	evs := r.Events()
	if len(evs) != 256 {
		t.Fatalf("ring has %d events, want full 256", len(evs))
	}
}

// emitSession replays one logical workload onto a fresh recorder with
// schedule-dependent noise (emission order, worker ids, sleeps) that
// scrubbing must hide.
func emitSession(order []int, workers []int) *Recorder {
	r := NewRecorder(256)
	for i, idx := range order {
		w := workers[i%len(workers)]
		scope := fmt.Sprintf("fsm_w1/p0:t%d", idx)
		h := Scope{Rec: r, Label: scope, Worker: w}.Start("attempt")
		h.Span.SetStr("template", fmt.Sprintf("t%d", idx))
		r.Emit(EvProgress, "window", scope, w, Int("start", 0), Int("end", 8))
		r.Emit(EvHeartbeat, "sat.solve", scope, w,
			Int("conflicts", 1024*int64(idx+1)), Int("propagations", 9000),
			Int("time_rate_cps", int64(100*idx))) // wall-clock-derived: scrubbed
		time.Sleep(time.Duration(idx) * time.Microsecond)
		h.Span.SetInt("sites", int64(10+idx))
		h.End()
	}
	return r
}

// TestScrubRingDeterministic pins the satellite guarantee: two runs
// doing the same logical work — in a different order, on different
// workers, at different speeds — scrub to byte-identical ring dumps,
// and the dumps pass schema validation.
func TestScrubRingDeterministic(t *testing.T) {
	a := emitSession([]int{0, 1, 2, 3}, []int{0, 0, 0, 0})
	b := emitSession([]int{3, 1, 0, 2}, []int{2, 1, 3, 0})

	dump := func(r *Recorder) []byte {
		var buf bytes.Buffer
		if err := r.WriteRingJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateRingJSONL(buf.Bytes()); err != nil {
			t.Fatalf("dump fails validation: %v", err)
		}
		return buf.Bytes()
	}
	da, db := dump(a), dump(b)
	if bytes.Equal(da, db) {
		t.Fatal("raw dumps identical — fixture lost its schedule noise")
	}
	sa, err := ScrubRingJSONL(da)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ScrubRingJSONL(db)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("scrubbed dumps differ:\n--- a ---\n%s\n--- b ---\n%s", sa, sb)
	}
	if bytes.Contains(sa, []byte("t_us")) || bytes.Contains(sa, []byte("time_rate_cps")) ||
		bytes.Contains(sa, []byte(`"seq"`)) || bytes.Contains(sa, []byte(`"worker"`)) {
		t.Fatalf("scrub left volatile fields behind:\n%s", sa)
	}
}

func TestValidateRingJSONLRejects(t *testing.T) {
	r := NewRecorder(64)
	r.Emit(EvHeartbeat, "sat.solve", "x", 0, Int("conflicts", 1), Int("propagations", 2))
	var buf bytes.Buffer
	if err := r.WriteRingJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if err := ValidateRingJSONL([]byte(good)); err != nil {
		t.Fatalf("good dump rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"empty":              "",
		"bad header":         "{\"type\":\"trace\",\"version\":1}\n",
		"count mismatch":     "{\"type\":\"ring\",\"version\":1,\"events\":2}\n" + good[len(good)-len("{}\n"):],
		"unknown kind":       "{\"type\":\"ring\",\"version\":1,\"events\":1}\n{\"type\":\"event\",\"seq\":1,\"kind\":\"mystery\",\"name\":\"x\"}\n",
		"heartbeat no attrs": "{\"type\":\"ring\",\"version\":1,\"events\":1}\n{\"type\":\"event\",\"seq\":1,\"kind\":\"heartbeat\",\"name\":\"x\"}\n",
		"seq regress":        "{\"type\":\"ring\",\"version\":1,\"events\":2}\n{\"type\":\"event\",\"seq\":2,\"kind\":\"queue\",\"name\":\"a\"}\n{\"type\":\"event\",\"seq\":1,\"kind\":\"queue\",\"name\":\"b\"}\n",
	} {
		if err := ValidateRingJSONL([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScopeRecorderIntegration(t *testing.T) {
	r := NewRecorder(64)
	sc := Scope{Rec: r}
	sc = sc.WithLabel("jobX").WithLabel("fsm_w1")
	if sc.Label != "jobX/fsm_w1" {
		t.Fatalf("label = %q", sc.Label)
	}
	rep := sc.Start("repair")
	port := rep.Start("portfolio")
	if live := r.LiveSpans(); len(live) != 1 || len(live[0].Children) != 1 {
		t.Fatalf("live tree = %+v", live)
	}
	port.Event(EvProgress, "window", Int("start", 0), Int("end", 8))
	port.End()
	rep.End()

	evs := r.Events()
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Scope != "jobX/fsm_w1" {
			t.Errorf("event %s scope = %q", ev.Name, ev.Scope)
		}
	}
	if kinds[EvSpanBegin] != 2 || kinds[EvSpanEnd] != 2 || kinds[EvProgress] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}
