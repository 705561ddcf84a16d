package bmc

import (
	"context"
	"testing"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/tsys"
	"rtlrepair/internal/verilog"
)

func elab(t *testing.T, src string) (*smt.Context, *tsys.System, *verilog.Module) {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := smt.NewContext()
	sys, _, err := synth.Elaborate(ctx, m, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, sys, m
}

// A saturating counter whose "no overflow past 12" property is violated
// because the saturation compare is wrong.
const buggySat = `
module sat(input clk, input rst, input en,
           output reg [3:0] cnt, output ok);
assign ok = (cnt <= 4'd12);
always @(posedge clk) begin
  if (rst) cnt <= 4'd0;
  else if (en && cnt < 4'd14) cnt <= cnt + 4'd1;
end
endmodule`

const goodSat = `
module sat(input clk, input rst, input en,
           output reg [3:0] cnt, output ok);
assign ok = (cnt <= 4'd12);
always @(posedge clk) begin
  if (rst) cnt <= 4'd0;
  else if (en && cnt < 4'd12) cnt <= cnt + 4'd1;
end
endmodule`

func TestBMCFindsViolation(t *testing.T) {
	ctx, sys, _ := elab(t, buggySat)
	res, err := Check(ctx, sys, "ok", Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatal("violation not found")
	}
	// From an arbitrary state a violation exists immediately (cnt = 13).
	if res.Depth != 0 {
		t.Fatalf("depth = %d, want 0 (arbitrary initial state)", res.Depth)
	}
}

func TestBMCSafeDesign(t *testing.T) {
	ctx, sys, _ := elab(t, `
module safe(input clk, input rst, input en, output reg [3:0] cnt, output ok);
assign ok = 1'b1;
always @(posedge clk) begin
  if (rst) cnt <= 4'd0;
  else if (en) cnt <= cnt + 4'd1;
end
endmodule`)
	res, err := Check(ctx, sys, "ok", Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatal("constant property cannot be violated")
	}
	if res.Depth != 8 {
		t.Fatalf("proved depth = %d", res.Depth)
	}
}

func TestBMCFromResetNeedsDeeperTrace(t *testing.T) {
	// With cnt initialized to 0 the violation needs 14 increments.
	src := `
module sat(input clk, input en, output reg [3:0] cnt, output ok);
initial cnt = 4'd0;
assign ok = (cnt <= 4'd12);
always @(posedge clk) begin
  if (en && cnt < 4'd14) cnt <= cnt + 4'd1;
end
endmodule`
	ctx, sys, _ := elab(t, src)
	res, err := Check(ctx, sys, "ok", Options{MaxDepth: 20, FromReset: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatal("violation not found")
	}
	if res.Depth != 13 {
		t.Fatalf("depth = %d, want 13 (cnt reaches 13 after 13 enabled cycles)", res.Depth)
	}
	// The counterexample must actually violate under simulation.
	cs := sim.NewCycleSim(sys, sim.Zero, 0)
	r := sim.RunTraceFrom(cs, res.Counterexample, 0, sim.RunOptions{Policy: sim.Zero})
	if r.Passed() {
		t.Fatal("counterexample does not reproduce the violation in simulation")
	}
}

// The paper's §3 workflow: a BMC counterexample becomes the repair
// trace. The repair must make the property hold on that trace.
func TestBMCCounterexampleDrivesRepair(t *testing.T) {
	src := `
module sat(input clk, input en, output reg [3:0] cnt, output ok);
initial cnt = 4'd0;
assign ok = (cnt <= 4'd12);
always @(posedge clk) begin
  if (en && cnt < 4'd14) cnt <= cnt + 4'd1;
end
endmodule`
	ctx, sys, m := elab(t, src)
	res, err := Check(ctx, sys, "ok", Options{MaxDepth: 20, FromReset: true})
	if err != nil || !res.Violated {
		t.Fatalf("bmc: %v violated=%v", err, res != nil && res.Violated)
	}
	rep := core.RepairCtx(context.Background(), m, res.Counterexample, core.Options{
		Policy:  sim.Zero, // the BMC trace has concrete inputs; keep init at declared values
		Seed:    1,
		Timeout: 30 * time.Second,
		// The property expression must not be "repaired" away.
		Frozen: []string{"ok"},
	})
	if rep.Status != core.StatusRepaired {
		t.Fatalf("repair status = %v (%s)", rep.Status, rep.Reason)
	}
	// The repair must remove this counterexample. (A single
	// counterexample usually underdetermines the fix, so the repair may
	// overfit — the CEGIS loop in cegis.go handles convergence; see
	// TestRepairLoopConverges.)
	ctx2 := smt.NewContext()
	rsys, _, err := synth.Elaborate(ctx2, rep.Repaired, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := sim.NewCycleSim(rsys, sim.Zero, 0)
	if r := sim.RunTraceFrom(cs, res.Counterexample, 0, sim.RunOptions{Policy: sim.Zero}); !r.Passed() {
		t.Fatalf("repair does not remove the counterexample (fails at %d)", r.FirstFailure)
	}
}

func TestBMCErrors(t *testing.T) {
	ctx, sys, _ := elab(t, buggySat)
	if _, err := Check(ctx, sys, "nope", Options{}); err == nil {
		t.Fatal("unknown property should error")
	}
	if _, err := Check(ctx, sys, "cnt", Options{}); err == nil {
		t.Fatal("wide property should error")
	}
}

func parseOne(t *testing.T, src string) *verilog.Module {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
