package rtlrepair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

const obsCounterSrc = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    count <= 4'b0000;
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

// impossibleTrace demands a pseudo-random count sequence no template can
// produce, so every portfolio attempt runs its full window search and
// the repair ends cannot-repair. With no candidate ever found there is
// no cross-attempt cancellation, which is what makes the span tree
// independent of the worker count.
func impossibleTrace() *trace.Trace {
	tr := trace.New(
		[]trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}},
		[]trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}},
	)
	want := []uint64{0, 7, 1, 12, 4, 11, 2, 9}
	for i, w := range want {
		rst, en := uint64(0), uint64(1)
		if i == 0 {
			rst, en = 1, 0
		}
		tr.AddRow(
			[]bv.XBV{bv.KU(1, rst), bv.KU(1, en)},
			[]bv.XBV{bv.KU(4, w), bv.KU(1, 0)},
		)
	}
	return tr
}

// TestTraceBytesIdenticalAcrossWorkers is the cross-worker determinism
// golden: a cannot-repair run at workers=1 and workers=4 must export
// byte-identical JSONL and Chrome traces once timestamps and worker
// placement are scrubbed.
func TestTraceBytesIdenticalAcrossWorkers(t *testing.T) {
	m, err := verilog.ParseModule(obsCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	exports := func(workers int) (jsonl, chrome []byte) {
		tracer := obs.New()
		ctx := obs.NewContext(context.Background(), obs.Scope{Tracer: tracer})
		res := core.RepairCtx(ctx, m, impossibleTrace(), core.Options{
			Policy:  sim.Randomize,
			Seed:    7,
			Timeout: 120 * time.Second,
			Workers: workers,
		})
		if res.Status != core.StatusCannotRepair {
			t.Fatalf("workers=%d: status = %v, want cannot-repair (fixture must stay unrepairable)", workers, res.Status)
		}
		var jb, cb bytes.Buffer
		if err := tracer.WriteJSONL(&jb); err != nil {
			t.Fatal(err)
		}
		if err := tracer.WriteChromeTrace(&cb); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateJSONL(jb.Bytes()); err != nil {
			t.Fatalf("workers=%d: invalid trace: %v", workers, err)
		}
		sj, err := obs.ScrubJSONL(jb.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := obs.ScrubChromeTrace(cb.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return sj, sc
	}
	j1, c1 := exports(1)
	j4, c4 := exports(4)
	if !bytes.Equal(j1, j4) {
		t.Errorf("scrubbed JSONL differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", j1, j4)
	}
	if !bytes.Equal(c1, c4) {
		t.Errorf("scrubbed Chrome trace differs between workers=1 and workers=4")
	}
}

// TestRingBytesIdenticalAcrossWorkers is the flight-recorder twin of
// the trace test above: the scrubbed ring dump — span begin/end pairs,
// window progress events, and SAT heartbeats — must be byte-identical
// across worker counts. Heartbeats are keyed on cumulative conflicts
// (not wall clock), so with clause sharing disabled every attempt's
// beat sequence depends only on the seed; ScrubRingJSONL strips the
// volatile fields (seq, t_us, worker, time_*) and sorts lines, making
// the remainder a deterministic multiset.
func TestRingBytesIdenticalAcrossWorkers(t *testing.T) {
	m, err := verilog.ParseModule(obsCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	rings := func(workers int) []byte {
		rec := obs.NewRecorder(obs.DefaultRingCapacity)
		ctx := obs.NewContext(context.Background(), obs.Scope{Rec: rec})
		res := core.RepairCtx(ctx, m, impossibleTrace(), core.Options{
			Policy:        sim.Randomize,
			Seed:          7,
			Timeout:       120 * time.Second,
			Workers:       workers,
			NoClauseShare: true,
		})
		if res.Status != core.StatusCannotRepair {
			t.Fatalf("workers=%d: status = %v, want cannot-repair (fixture must stay unrepairable)", workers, res.Status)
		}
		if dropped := rec.Dropped(); dropped != 0 {
			t.Fatalf("workers=%d: recorder dropped %d events (grow the ring)", workers, dropped)
		}
		var buf bytes.Buffer
		if err := rec.WriteRingJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateRingJSONL(buf.Bytes()); err != nil {
			t.Fatalf("workers=%d: invalid ring dump: %v", workers, err)
		}
		scrubbed, err := obs.ScrubRingJSONL(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return scrubbed
	}
	r1 := rings(1)
	r4 := rings(4)
	if !bytes.Equal(r1, r4) {
		t.Errorf("scrubbed ring differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", r1, r4)
	}
}

// TestRingCarriesEveryLayer checks that the always-on flight recorder
// alone explains a repair layer by layer. A Workers-1 repair of
// counter_k1 runs with a private recorder and a tracer: every span the
// tracer saw must reach the ring as a span_end (per-name counts equal,
// so encode, sat.solve, smt.check, validate and the other inner layers
// are there), and the repair span's direct children — the spans in the
// design's own scope — must cover >=95% of its time_dur_us, read from
// the ring with no tracer involved.
func TestRingCarriesEveryLayer(t *testing.T) {
	bm := bench.ByName("counter_k1")
	if bm == nil {
		t.Fatal("benchmark counter_k1 not in registry")
	}
	tr, err := bm.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := bm.BuggyModule()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	tracer := obs.New()
	ctx := obs.NewContext(context.Background(), obs.Scope{Tracer: tracer, Rec: rec})
	res := core.RepairCtx(ctx, m, tr, core.Options{
		Policy:  sim.Randomize,
		Seed:    goldenSeed(bm, tr, 1),
		Timeout: 120 * time.Second,
		Workers: 1,
	})
	if res.Status != core.StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}
	if dropped := rec.Dropped(); dropped != 0 {
		t.Fatalf("recorder dropped %d events", dropped)
	}

	ended := map[string]int{}
	var repairUS, childUS int64
	for _, ev := range rec.Events() {
		if ev.Kind != obs.EvSpanEnd {
			continue
		}
		ended[ev.Name]++
		var dur int64
		for _, a := range ev.Attrs {
			if a.Key == "time_dur_us" {
				dur = a.Int
			}
		}
		switch {
		case ev.Scope != m.Name:
		case ev.Name == "repair":
			repairUS = dur
		default:
			childUS += dur
		}
	}
	totals := tracer.PhaseTotals()
	for name, ps := range totals {
		if ended[name] != ps.Count {
			t.Errorf("%s: %d span_end events in the ring, %d spans in the trace", name, ended[name], ps.Count)
		}
	}
	if len(ended) != len(totals) {
		t.Errorf("ring span names %v, trace span names %v", ended, totals)
	}
	for _, layer := range []string{"encode", "sat.solve", "smt.check", "validate", "concretize"} {
		if ended[layer] == 0 {
			t.Errorf("no %s span in the ring", layer)
		}
	}
	if repairUS <= 0 {
		t.Fatalf("repair span_end missing or zero-length (%dus)", repairUS)
	}
	coverage := float64(childUS) / float64(repairUS)
	t.Logf("ring: repair %dus, direct children %dus, coverage %.2f%%", repairUS, childUS, 100*coverage)
	if coverage < 0.95 {
		t.Errorf("ring-only phase coverage %.2f%%, want >= 95%%", 100*coverage)
	}
}

// TestPhaseCoverage checks the acceptance bar that the phase spans
// account for >=95% of the repair wall clock: the root "repair" span's
// direct children must own (nearly) all of its duration, so a trace
// reader never stares at unexplained time.
func TestPhaseCoverage(t *testing.T) {
	var bm *bench.Benchmark
	for _, b := range bench.Registry() {
		if b.Name == "counter_k1" {
			bm = b
			break
		}
	}
	if bm == nil {
		t.Fatal("benchmark counter_k1 not in registry")
	}
	tr, err := bm.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := bm.BuggyModule()
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.New()
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.Scope{Tracer: tracer, Metrics: reg})
	res := core.RepairCtx(ctx, m, tr, core.Options{
		Policy:  sim.Randomize,
		Seed:    goldenSeed(bm, tr, 1),
		Timeout: 120 * time.Second,
		Workers: 1,
	})
	if res.Status != core.StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJSONL(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	type spanLine struct {
		Type   string `json:"type"`
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Name   string `json:"name"`
		DurUS  int64  `json:"dur_us"`
	}
	var rootID int
	var rootDur, childDur int64
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var sp spanLine
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Type != "span" {
			continue
		}
		switch {
		case sp.Parent == 0 && sp.Name == "repair":
			if rootID != 0 {
				t.Fatal("multiple repair root spans")
			}
			rootID = sp.ID
			rootDur = sp.DurUS
		case rootID != 0 && sp.Parent == rootID:
			childDur += sp.DurUS
		}
	}
	if rootID == 0 {
		t.Fatal("no repair root span in trace")
	}
	if rootDur <= 0 {
		t.Fatalf("repair span duration %dus", rootDur)
	}
	coverage := float64(childDur) / float64(rootDur)
	t.Logf("repair %dus, phases %dus, coverage %.2f%%", rootDur, childDur, 100*coverage)
	if coverage < 0.95 {
		t.Errorf("phase spans cover %.2f%% of repair wall clock, want >= 95%%", 100*coverage)
	}

	// The metrics registry must carry the run's aggregates without any
	// verbose flag: the counters are fed from the always-populated Result.
	if reg.Counter("repair.runs") != 1 {
		t.Errorf("repair.runs = %d, want 1", reg.Counter("repair.runs"))
	}
	if reg.Counter("sat.propagations") == 0 {
		t.Error("sat.propagations not aggregated into metrics")
	}
	var mbuf bytes.Buffer
	if err := reg.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.Unmarshal(mbuf.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics JSON missing %q section", key)
		}
	}
}
