package core_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"rtlrepair/internal/bv"
	"rtlrepair/internal/core"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// ExampleRepairCtx repairs the paper's counter (Figure 1) from a five-cycle
// I/O trace.
func ExampleRepairCtx() {
	buggy := `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) overflow <= 1'b1;
end
endmodule`
	m, err := verilog.ParseModule(buggy)
	if err != nil {
		log.Fatal(err)
	}

	ins := []trace.Signal{{Name: "reset", Width: 1}, {Name: "enable", Width: 1}}
	outs := []trace.Signal{{Name: "count", Width: 4}, {Name: "overflow", Width: 1}}
	tr := trace.New(ins, outs)
	row := func(rst, en uint64, count bv.XBV) {
		tr.AddRow([]bv.XBV{bv.KU(1, rst), bv.KU(1, en)}, []bv.XBV{count, bv.X(1)})
	}
	row(1, 0, bv.X(4))     // reset; outputs unchecked
	row(0, 0, bv.KU(4, 0)) // after reset the count must be zero
	row(0, 1, bv.KU(4, 0))
	row(0, 1, bv.KU(4, 1))
	row(0, 0, bv.KU(4, 2)) // and hold while disabled

	res := core.RepairCtx(context.Background(), m, tr, core.Options{
		Policy:  sim.Randomize,
		Seed:    1,
		Timeout: 30 * time.Second,
	})
	fmt.Println(res.Status, "by", res.Template, "with", res.Changes, "changes")
	// Output: repaired by Conditional Overwrite with 1 changes
}
