package core

import (
	"context"
	"strings"
	"testing"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// twoTraces builds two short traces from the golden counter that
// together pin down the increment: one counts, one holds.
func twoTraces(t *testing.T) []*trace.Trace {
	ins, outs := counterIO()
	count := recordGolden(t, goodCounter, ins, outs, [][]bv.XBV{
		{bv.KU(1, 1), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 1)},
	})
	hold := recordGolden(t, goodCounter, ins, outs, [][]bv.XBV{
		{bv.KU(1, 1), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 0)},
	})
	return []*trace.Trace{count, hold}
}

func TestRepairMultiSatisfiesAllTraces(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	res := RepairMultiCtx(context.Background(), mustParse(t, buggy), twoTraces(t), repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	for i, tr := range twoTraces(t) {
		checkRepairPasses(t, res, tr)
		_ = i
	}
	if res.Template != "Replace Literals" || res.Changes != 1 {
		t.Fatalf("template %s changes %d", res.Template, res.Changes)
	}
}

func TestRepairMultiNoRepairNeeded(t *testing.T) {
	res := RepairMultiCtx(context.Background(), mustParse(t, goodCounter), twoTraces(t), repairOpts())
	if res.Status != StatusNoRepairNeeded {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestRepairMultiEmptyTraceList(t *testing.T) {
	res := RepairMultiCtx(context.Background(), mustParse(t, goodCounter), nil, repairOpts())
	if res.Status != StatusNoRepairNeeded {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestRepairMultiUnsynthesizable(t *testing.T) {
	src := `
module bad(input clk, input en, output reg [3:0] q);
always @(clk) begin
  if (en) q <= q + 1;
end
endmodule`
	res := RepairMultiCtx(context.Background(), mustParse(t, src), twoTraces(t), repairOpts())
	if res.Status != StatusCannotRepair {
		t.Fatalf("status = %v", res.Status)
	}
}

// A repair must not satisfy one trace at the expense of the other:
// construct a bug where the "cheap" fix for trace A alone breaks trace
// B, forcing the joint solution.
func TestRepairMultiJointConstraint(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	traces := twoTraces(t)
	// Single-trace repair against the hold-only trace would accept the
	// buggy increment (nothing increments there) — the design passes it
	// outright. Jointly, the counting trace forces the fix while the
	// hold trace guards against overwrite-style overfits.
	resHoldOnly := RepairMultiCtx(context.Background(), mustParse(t, buggy), traces[1:], repairOpts())
	if resHoldOnly.Status != StatusNoRepairNeeded {
		t.Fatalf("hold-only status = %v, want no-repair-needed (bug invisible)", resHoldOnly.Status)
	}
	resJoint := RepairMultiCtx(context.Background(), mustParse(t, buggy), traces, repairOpts())
	if resJoint.Status != StatusRepaired {
		t.Fatalf("joint status = %v", resJoint.Status)
	}
	if !strings.Contains(verilog.Print(resJoint.Repaired), "count + 32'") &&
		!strings.Contains(verilog.Print(resJoint.Repaired), "count + 1") {
		t.Logf("repair:\n%s", verilog.Print(resJoint.Repaired))
	}
}
