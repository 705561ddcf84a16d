// The newtemplate example demonstrates the extensibility claim of §4.2
// and §8: "new repair templates can be easily added without any changes
// to the repair synthesizer as long as they use φ and α variables". It
// defines a "Swap Operands" template that lets the synthesizer swap the
// operands of any non-commutative binary operator, and uses it to repair
// a bug none of the three built-in templates can express.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/smt"
	"rtlrepair/internal/synth"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// SwapOperands is a user-defined repair template: for every
// non-commutative binary expression a⊙b it adds φ ? (b⊙a) : (a⊙b).
type SwapOperands struct{}

// Name implements core.Template.
func (SwapOperands) Name() string { return "Swap Operands" }

// Instrument implements core.Template.
func (SwapOperands) Instrument(m *verilog.Module, env *core.Env, vars *core.VarTable) (*verilog.Module, error) {
	out := verilog.CloneModule(m)
	nonCommutative := map[string]bool{"-": true, "<": true, "<=": true, ">": true, ">=": true,
		"<<": true, ">>": true, ">>>": true, "/": true, "%": true}
	verilog.RewriteExprs(out, func(e verilog.Expr) verilog.Expr {
		bin, ok := e.(*verilog.Binary)
		if !ok || !nonCommutative[bin.Op] {
			return e
		}
		phi := vars.NewPhi(1, fmt.Sprintf("swap operands of %q at %v", bin.Op, bin.Pos))
		swapped := &verilog.Binary{Pos: bin.Pos, Op: bin.Op,
			X: verilog.CloneExpr(bin.Y), Y: verilog.CloneExpr(bin.X)}
		return &verilog.Ternary{Pos: bin.Pos, Cond: phi, Then: swapped, Else: bin}
	})
	return out, nil
}

const goodSub = `
module sat_sub(input clk, input [7:0] a, input [7:0] b, output reg [7:0] y);
always @(posedge clk) begin
  if (a > b) y <= a - b;
  else y <= 8'd0;
end
endmodule`

func main() {
	// The bug: operands of the subtraction are swapped.
	buggy := `
module sat_sub(input clk, input [7:0] a, input [7:0] b, output reg [7:0] y);
always @(posedge clk) begin
  if (a > b) y <= b - a;
  else y <= 8'd0;
end
endmodule`

	gtMod, err := verilog.ParseModule(goodSub)
	if err != nil {
		log.Fatal(err)
	}
	gtSys, _, err := synth.Elaborate(smt.NewContext(), gtMod, synth.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ins := []trace.Signal{{Name: "a", Width: 8}, {Name: "b", Width: 8}}
	outs := []trace.Signal{{Name: "y", Width: 8}}
	var inputRows [][]bv.XBV
	for i := 0; i < 24; i++ {
		inputRows = append(inputRows, []bv.XBV{
			bv.KU(8, uint64(i*11+40)%256), bv.KU(8, uint64(i*7)%256),
		})
	}
	cs := sim.NewCycleSim(gtSys, sim.KeepX, 0)
	tr := sim.RecordTrace(cs, ins, outs, inputRows)

	buggyMod, err := verilog.ParseModule(buggy)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- built-in templates only ---")
	res := core.RepairCtx(context.Background(), verilog.CloneModule(buggyMod), tr, core.Options{
		Policy: sim.Randomize, Seed: 1, Timeout: 20 * time.Second,
	})
	fmt.Printf("status: %s (the three built-in templates cannot express an operand swap)\n\n", res.Status)

	fmt.Println("--- with the custom Swap Operands template ---")
	res = core.RepairCtx(context.Background(), verilog.CloneModule(buggyMod), tr, core.Options{
		Policy: sim.Randomize, Seed: 1, Timeout: 20 * time.Second,
		Templates: append(core.DefaultTemplates(), SwapOperands{}),
	})
	fmt.Printf("status: %s via %q with %d change(s) in %s\n",
		res.Status, res.Template, res.Changes, res.Duration.Round(time.Millisecond))
	if res.Repaired != nil {
		fmt.Println("\nrepair diff:")
		fmt.Print(eval.DiffLines(verilog.Print(buggyMod), verilog.Print(res.Repaired)))
	}
}
