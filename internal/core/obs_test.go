package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"rtlrepair/internal/obs"
)

// TestPortfolioTracingRace runs a 4-worker portfolio repair with tracing
// and metrics fully enabled. Its job is to put concurrent span starts,
// attribute writes and registry updates from the worker goroutines in
// front of the race detector (the CI race job matches TestPortfolio*),
// and to check the resulting trace still validates and the registry saw
// the portfolio counters.
func TestPortfolioTracingRace(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	tracer := obs.New()
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.Scope{Tracer: tracer, Metrics: reg})

	opts := repairOpts()
	opts.Workers = 4
	res := RepairCtx(ctx, mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}
	if res.SAT.Propagations == 0 {
		t.Fatal("Result.SAT not aggregated")
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJSONL(buf.Bytes()); err != nil {
		t.Fatalf("trace from 4-worker run does not validate: %v\n%s", err, buf.String())
	}
	if got := reg.Counter("portfolio.attempts"); got == 0 {
		t.Fatal("portfolio.attempts counter not recorded")
	}
	if got := reg.Counter("repair.runs"); got != 1 {
		t.Fatalf("repair.runs = %d, want 1", got)
	}
	if reg.Counter("smt.checks") == 0 {
		t.Fatal("smt.checks counter not recorded")
	}
}

// TestRepairResultAggregatesAlways checks satellite invariant: the SAT
// and certification aggregates land on the Result with observability
// fully disabled (context.Background(), zero scope), so a -metrics-out or
// -v consumer never depends on the other being enabled.
func TestRepairResultAggregatesAlways(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	opts := repairOpts()
	opts.Workers = 1
	opts.Certify = true
	res := RepairCtx(context.Background(), mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}
	if res.SAT.Propagations == 0 || res.SAT.Clauses == 0 {
		t.Fatalf("Result.SAT empty: %+v", res.SAT)
	}
	if res.Certify.ModelsValidated == 0 && res.Certify.UnsatsCertified == 0 {
		t.Fatalf("Result.Certify empty: %+v", res.Certify)
	}
}

// TestRepairFlightRecorder runs a full repair with a private flight
// recorder attached and checks the always-on story end to end: the
// pipeline mirrors its spans into the recorder (repair root plus nested
// phases), the synthesizer emits window progress events, labels chain
// design/attempt hierarchically, the live-span table drains by the time
// RepairCtx returns, and the resulting ring dump validates and scrubs
// deterministically.
func TestRepairFlightRecorder(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	ctx := obs.NewContext(context.Background(), obs.Scope{Rec: rec})

	opts := repairOpts()
	opts.Workers = 2
	res := RepairCtx(ctx, mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}

	if live := rec.LiveSpans(); len(live) != 0 {
		t.Fatalf("live spans leaked after RepairCtx: %d", len(live))
	}
	if cells := rec.Solvers(); len(cells) != 0 {
		t.Fatalf("solver cells leaked after RepairCtx: %d", len(cells))
	}

	kinds := map[string]int{}
	sawWindowProgress, sawAttemptLabel := false, false
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
		if ev.Kind == obs.EvProgress && ev.Name == "window.solve" {
			sawWindowProgress = true
			if !strings.HasPrefix(ev.Scope, "first_counter/") {
				t.Fatalf("window progress scope = %q, want first_counter/... prefix", ev.Scope)
			}
		}
		if ev.Kind == obs.EvSpanBegin && ev.Name == "attempt" {
			sawAttemptLabel = strings.Contains(ev.Scope, "/p") || sawAttemptLabel
		}
	}
	if kinds[obs.EvSpanBegin] == 0 || kinds[obs.EvSpanBegin] != kinds[obs.EvSpanEnd] {
		t.Fatalf("span begin/end mismatch: %+v", kinds)
	}
	if !sawWindowProgress {
		t.Fatalf("no window.solve progress events; kinds = %+v", kinds)
	}
	if !sawAttemptLabel {
		t.Fatal("attempt span_begin events carry no pass/template label")
	}

	var buf bytes.Buffer
	if err := rec.WriteRingJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRingJSONL(buf.Bytes()); err != nil {
		t.Fatalf("ring from repair run does not validate: %v", err)
	}
	if _, err := obs.ScrubRingJSONL(buf.Bytes()); err != nil {
		t.Fatalf("ring does not scrub: %v", err)
	}
}
