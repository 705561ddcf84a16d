package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

const goodCounter = `
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

// buggyCounter is Figure 1a: the count reset is missing.
const buggyCounter = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

// recordGolden simulates the ground truth to produce the trace.
func recordGolden(t *testing.T, goldenSrc string, inputs []trace.Signal, outputs []trace.Signal, rows [][]bv.XBV) *trace.Trace {
	t.Helper()
	m, err := verilog.ParseModule(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), m, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Record with X-propagation so outputs that depend on uninitialized
	// registers become don't-cares, as a real testbench that checks
	// nothing before reset would produce.
	cs := sim.NewCycleSim(sys, sim.KeepX, 0)
	return sim.RecordTrace(cs, inputs, outputs, rows)
}

func counterIO() ([]trace.Signal, []trace.Signal) {
	return []trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}},
		[]trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}}
}

// counterRows: reset, count a few, hold, count again.
func counterRows() [][]bv.XBV {
	rows := [][]bv.XBV{{bv.KU(1, 1), bv.KU(1, 0)}}
	for i := 0; i < 5; i++ {
		rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 1)})
	}
	rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 0)}) // hold
	rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 0)}) // hold
	for i := 0; i < 3; i++ {
		rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 1)})
	}
	rows = append(rows, []bv.XBV{bv.KU(1, 1), bv.KU(1, 0)}) // reset again
	rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 0)})
	return rows
}

func mustParse(t *testing.T, src string) *verilog.Module {
	t.Helper()
	m, err := verilog.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func repairOpts() Options {
	return Options{Policy: sim.Randomize, Seed: 7, Timeout: 30 * time.Second}
}

// checkRepairPasses validates a repair result against the trace under a
// few random concretizations.
func checkRepairPasses(t *testing.T, res *Result, tr *trace.Trace) {
	t.Helper()
	if res.Repaired == nil {
		t.Fatalf("no repaired module (status %v, reason %s)", res.Status, res.Reason)
	}
	sys, _, err := synth.Elaborate(smt.NewContext(), res.Repaired, synth.Options{})
	if err != nil {
		t.Fatalf("repaired module does not synthesize: %v\n%s", err, verilog.Print(res.Repaired))
	}
	for seed := int64(1); seed <= 3; seed++ {
		r := sim.RunTrace(sys, tr, sim.RunOptions{Policy: sim.Randomize, Seed: seed})
		if !r.Passed() {
			t.Fatalf("repair fails trace with seed %d at cycle %d (%s)\n%s",
				seed, r.FirstFailure, r.FailedSignal, verilog.Print(res.Repaired))
		}
	}
}

func TestRepairMissingReset(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	res := RepairCtx(context.Background(), mustParse(t, buggyCounter), tr, repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (reason %s)", res.Status, res.Reason)
	}
	if res.Template != "Conditional Overwrite" {
		t.Logf("note: repaired by %s with %d changes", res.Template, res.Changes)
	}
	if res.Changes > 3 {
		t.Fatalf("repair too large: %d changes", res.Changes)
	}
	checkRepairPasses(t, res, tr)
	src := verilog.Print(res.Repaired)
	if !strings.Contains(src, "count <=") {
		t.Fatalf("repair does not assign count:\n%s", src)
	}
}

func TestRepairWrongIncrement(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Template != "Replace Literals" {
		t.Fatalf("template = %s, want Replace Literals", res.Template)
	}
	if res.Changes != 1 {
		t.Fatalf("changes = %d, want 1", res.Changes)
	}
	checkRepairPasses(t, res, tr)
	if !strings.Contains(verilog.Print(res.Repaired), "count + 32'") {
		// the replaced literal is 32-bit (unsized 2)
		t.Logf("repaired source:\n%s", verilog.Print(res.Repaired))
	}
}

func TestRepairInvertedCondition(t *testing.T) {
	// flop_w1-style bug: inverted conditional.
	good := `
module flop(input clk, input rst, input d, output reg q);
always @(posedge clk) begin
  if (rst) q <= 1'b0;
  else q <= d;
end
endmodule`
	buggy := `
module flop(input clk, input rst, input d, output reg q);
always @(posedge clk) begin
  if (!rst) q <= 1'b0;
  else q <= d;
end
endmodule`
	ins := []trace.Signal{{Name: "rst", Width: 1}, {Name: "d", Width: 1}}
	outs := []trace.Signal{{Name: "q", Width: 1}}
	rows := [][]bv.XBV{
		{bv.KU(1, 1), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 0)},
		{bv.KU(1, 0), bv.KU(1, 1)},
		{bv.KU(1, 1), bv.KU(1, 1)},
		{bv.KU(1, 0), bv.KU(1, 1)},
	}
	tr := recordGolden(t, good, ins, outs, rows)
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	checkRepairPasses(t, res, tr)
}

func TestRepairMissingGuard(t *testing.T) {
	// sha3_s1-style bug: a skipped condition in a 1-bit assignment.
	good := `
module upd(input clk, input accept, input state, input done, input full,
           output update);
assign update = (accept | state) & ~done & ~full;
endmodule`
	buggy := `
module upd(input clk, input accept, input state, input done, input full,
           output update);
assign update = (accept | state) & ~done;
endmodule`
	ins := []trace.Signal{{Name: "accept", Width: 1}, {Name: "state", Width: 1},
		{Name: "done", Width: 1}, {Name: "full", Width: 1}}
	outs := []trace.Signal{{Name: "update", Width: 1}}
	var rows [][]bv.XBV
	for i := 0; i < 16; i++ {
		rows = append(rows, []bv.XBV{
			bv.KU(1, uint64(i)&1), bv.KU(1, uint64(i>>1)&1),
			bv.KU(1, uint64(i>>2)&1), bv.KU(1, uint64(i>>3)&1),
		})
	}
	tr := recordGolden(t, good, ins, outs, rows)
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	checkRepairPasses(t, res, tr)
	src := verilog.Print(res.Repaired)
	if !strings.Contains(src, "full") {
		t.Fatalf("expected a guard mentioning full:\n%s", src)
	}
}

func TestNoRepairNeeded(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	res := RepairCtx(context.Background(), mustParse(t, goodCounter), tr, repairOpts())
	if res.Status != StatusNoRepairNeeded {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Changes != 0 {
		t.Fatalf("changes = %d", res.Changes)
	}
}

func TestRepairedByPreprocessing(t *testing.T) {
	// Correct logic but blocking assignments in a clocked process.
	buggy := strings.ReplaceAll(goodCounter, "<=", "=")
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusPreprocessed {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.Changes == 0 {
		t.Fatal("preprocessing changes not counted")
	}
	checkRepairPasses(t, res, tr)
}

func TestCannotRepairUnsynthesizable(t *testing.T) {
	// counter_w1 pattern: level-sensitive self increment.
	buggy := `
module c(input clk, input en, output reg [3:0] q);
always @(clk) begin
  if (en) q <= q + 1;
end
endmodule`
	ins := []trace.Signal{{Name: "en", Width: 1}}
	outs := []trace.Signal{{Name: "q", Width: 4}}
	tr := trace.New(ins, outs)
	tr.AddRow([]bv.XBV{bv.KU(1, 1)}, []bv.XBV{bv.KU(4, 1)})
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusCannotRepair {
		t.Fatalf("status = %v", res.Status)
	}
	if !strings.Contains(res.Reason, "synthesizable") {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestResolveAllZeroRestoresOriginal(t *testing.T) {
	m := mustParse(t, goodCounter)
	info := elaborateInfo(smt.NewContext(), m, nil)
	counter := 0
	for _, tmpl := range DefaultTemplates() {
		vars := NewVarTable(&counter)
		instr, err := tmpl.Instrument(m, &Env{Info: info}, vars)
		if err != nil {
			t.Fatalf("%s: %v", tmpl.Name(), err)
		}
		zero := Assignment{}
		for _, p := range vars.Phis {
			zero[p.Name] = bv.Zero(1)
		}
		for _, a := range vars.Alphas {
			zero[a.Name] = bv.Zero(a.Width)
		}
		restored, err := Resolve(instr, zero)
		if err != nil {
			t.Fatalf("%s: resolve: %v", tmpl.Name(), err)
		}
		if got, want := verilog.Print(restored), verilog.Print(m); got != want {
			t.Fatalf("%s: all-zero resolution differs from original:\n--- got\n%s\n--- want\n%s",
				tmpl.Name(), got, want)
		}
	}
}

func TestInstrumentedDesignsElaborate(t *testing.T) {
	m := mustParse(t, goodCounter)
	ctx := smt.NewContext()
	info := elaborateInfo(ctx, m, nil)
	counter := 0
	for _, tmpl := range DefaultTemplates() {
		vars := NewVarTable(&counter)
		instr, err := tmpl.Instrument(m, &Env{Info: info}, vars)
		if err != nil {
			t.Fatalf("%s: %v", tmpl.Name(), err)
		}
		if vars.Empty() {
			t.Fatalf("%s: no opportunities found", tmpl.Name())
		}
		sys, einfo, err := synth.Elaborate(ctx, instr, synth.Options{})
		if err != nil {
			t.Fatalf("%s: instrumented design does not elaborate: %v", tmpl.Name(), err)
		}
		if len(sys.Params) == 0 || len(einfo.SynthParams) == 0 {
			t.Fatalf("%s: no synthesis parameters in system", tmpl.Name())
		}
	}
}

func TestBasicSynthesizerAlsoRepairs(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	opts := repairOpts()
	opts.Basic = true
	res := RepairCtx(context.Background(), mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusRepaired {
		t.Fatalf("basic synth status = %v (%s)", res.Status, res.Reason)
	}
	checkRepairPasses(t, res, tr)
}

func TestWindowedScalesToLongTrace(t *testing.T) {
	// A long trace where the failure happens late: windowing must not
	// unroll the whole 400 cycles.
	ins, outs := counterIO()
	rows := [][]bv.XBV{{bv.KU(1, 1), bv.KU(1, 0)}}
	for i := 0; i < 400; i++ {
		rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 0)}) // idle
	}
	// late activity
	for i := 0; i < 6; i++ {
		rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 1)})
	}
	tr := recordGolden(t, goodCounter, ins, outs, rows)
	buggy := strings.Replace(goodCounter, "count + 1", "count + 3", 1)
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	checkRepairPasses(t, res, tr)
	// Find the Replace Literals attempt and check the window stayed small.
	for _, tr := range res.PerTemplate {
		if tr.Found && tr.Stats.FinalWindow[0]+tr.Stats.FinalWindow[1] > 32 {
			t.Fatalf("window too large: %v", tr.Stats.FinalWindow)
		}
	}
}

func TestRepairChangeDescriptions(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	res := RepairCtx(context.Background(), mustParse(t, buggy), tr, repairOpts())
	if res.Status != StatusRepaired || len(res.ChangeDescs) == 0 {
		t.Fatalf("no change descriptions: %+v", res)
	}
	if !strings.Contains(strings.Join(res.ChangeDescs, ";"), "literal") {
		t.Fatalf("descs = %v", res.ChangeDescs)
	}
}
