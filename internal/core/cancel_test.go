package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/verilog"
)

// cancelHook is a fake template that cancels the repair's context the
// moment the portfolio reaches it, simulating a client disconnect (or a
// server-side job timeout) firing mid-portfolio.
type cancelHook struct {
	cancel context.CancelFunc
}

func (c cancelHook) Name() string { return "Cancel Hook" }

func (c cancelHook) Instrument(m *verilog.Module, env *Env, vars *VarTable) (*verilog.Module, error) {
	c.cancel()
	return nil, fmt.Errorf("cancelled by test hook")
}

func TestRepairCtxPreCancelled(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RepairCtx(ctx, mustParse(t, buggyCounter), tr, repairOpts())
	if res.Status != StatusTimeout {
		t.Fatalf("status = %v (%s), want timeout", res.Status, res.Reason)
	}
	if res.Reason != "cancelled" {
		t.Fatalf("reason = %q, want cancelled", res.Reason)
	}
}

// TestRepairCtxCancelMidPortfolio is the regression test for the bug
// where a cancelled portfolio reported StatusCannotRepair and dropped
// the partial solver statistics. Replace Literals does real SAT work on
// the missing-reset counter without finding a repair (only Conditional
// Overwrite repairs it); the second template then cancels the context.
// The result must report StatusTimeout with the Replace Literals
// statistics aggregated onto it.
func TestRepairCtxCancelMidPortfolio(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := repairOpts()
	opts.Workers = 1
	opts.Templates = []Template{ReplaceLiterals{}, cancelHook{cancel: cancel}}
	res := RepairCtx(ctx, mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusTimeout {
		t.Fatalf("status = %v (%s), want timeout", res.Status, res.Reason)
	}
	if res.Reason != "cancelled" {
		t.Fatalf("reason = %q, want cancelled", res.Reason)
	}
	if res.SAT.Decisions == 0 && res.SAT.Propagations == 0 {
		t.Fatalf("partial SAT stats dropped: %+v", res.SAT)
	}
	if len(res.PerTemplate) == 0 {
		t.Fatalf("per-template results dropped")
	}
}

// TestRepairCtxDeadlineReason: a deadline-expired context reports
// "timeout", not "cancelled".
func TestRepairCtxDeadlineReason(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := RepairCtx(ctx, mustParse(t, buggyCounter), tr, repairOpts())
	if res.Status != StatusTimeout {
		t.Fatalf("status = %v (%s), want timeout", res.Status, res.Reason)
	}
	if res.Reason != "timeout" {
		t.Fatalf("reason = %q, want timeout", res.Reason)
	}
}

func TestRepairMultiCtxPreCancelled(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RepairMultiCtx(ctx, mustParse(t, buggy), twoTraces(t), repairOpts())
	if res.Status != StatusTimeout {
		t.Fatalf("status = %v (%s), want timeout", res.Status, res.Reason)
	}
	if res.Reason != "cancelled" {
		t.Fatalf("reason = %q, want cancelled", res.Reason)
	}
}

// TestRepairMultiAggregatesStats is the regression test for RepairMultiCtx
// never populating Result.SAT: the multi-trace solver's statistics must
// land on the result even on the successful path.
func TestRepairMultiAggregatesStats(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	res := RepairMultiCtx(context.Background(), mustParse(t, buggy), twoTraces(t), repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.SAT.Decisions == 0 && res.SAT.Propagations == 0 {
		t.Fatalf("multi-trace SAT stats not aggregated: %+v", res.SAT)
	}
}

func TestRepairAllCtxPreCancelled(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cands := RepairAllCtx(ctx, mustParse(t, buggyCounter), tr, repairOpts(), 4)
	if len(cands) != 0 {
		t.Fatalf("pre-cancelled sampling returned %d candidates", len(cands))
	}
}

// TestFrontendReuse: a pre-built Frontend artifact must produce the
// same repair as the inline frontend (this is the contract the serving
// layer's artifact cache relies on), including when shared across
// several repairs.
func TestFrontendReuse(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	m := mustParse(t, buggyCounter)
	base := RepairCtx(context.Background(), m, tr, repairOpts())
	if base.Status != StatusRepaired {
		t.Fatalf("baseline status = %v (%s)", base.Status, base.Reason)
	}
	fe := NewFrontend(m, nil, false)
	if fe.Reason != "" {
		t.Fatalf("frontend failed: %s", fe.Reason)
	}
	for i := 0; i < 2; i++ {
		opts := repairOpts()
		opts.Frontend = fe
		res := RepairCtx(context.Background(), m, tr, opts)
		if res.Status != StatusRepaired {
			t.Fatalf("run %d: status = %v (%s)", i, res.Status, res.Reason)
		}
		if verilog.Print(res.Repaired) != verilog.Print(base.Repaired) {
			t.Fatalf("run %d: cached-frontend repair differs from baseline", i)
		}
		checkRepairPasses(t, res, tr)
	}
}
