// The adaptive example demonstrates the adaptive windowing technique of
// §4.4 on a long-running testbench: a UART-style byte engine whose bug
// only manifests thousands of cycles into the trace. The basic
// synthesizer must unroll the whole trace; adaptive windowing repairs it
// from a handful of cycles around the failure.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
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

const goodEngine = `
module byte_engine(input clk, input rst, input go, input [7:0] data,
                   output reg [7:0] acc, output reg done);
reg [3:0] cnt;
reg busy;
always @(posedge clk) begin
  if (rst) begin
    acc <= 8'd0; cnt <= 4'd0; busy <= 1'b0; done <= 1'b0;
  end else begin
    done <= 1'b0;
    if (go && !busy) begin
      busy <= 1'b1;
      cnt <= 4'd0;
    end else if (busy) begin
      acc <= acc + data;
      cnt <= cnt + 4'd1;
      if (cnt == 4'd7) begin
        busy <= 1'b0;
        done <= 1'b1;
      end
    end
  end
end
endmodule`

func main() {
	// The bug: the accumulator adds data+1 instead of data.
	buggy := strings.Replace(goodEngine, "acc <= acc + data;", "acc <= acc + data + 8'd1;", 1)

	// Record a long testbench from the ground truth: thousands of idle
	// cycles, then activity near the end.
	gtMod, err := verilog.ParseModule(goodEngine)
	if err != nil {
		log.Fatal(err)
	}
	gtSys, _, err := synth.Elaborate(smt.NewContext(), gtMod, synth.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ins := []trace.Signal{{Name: "rst", Width: 1}, {Name: "go", Width: 1}, {Name: "data", Width: 8}}
	outs := []trace.Signal{{Name: "acc", Width: 8}, {Name: "done", Width: 1}}
	var rows [][]bv.XBV
	rows = append(rows, []bv.XBV{bv.KU(1, 1), bv.KU(1, 0), bv.KU(8, 0)})
	for i := 0; i < 3000; i++ { // long idle stretch
		rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 0), bv.KU(8, 0)})
	}
	for burst := 0; burst < 4; burst++ { // late activity reveals the bug
		rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 1), bv.KU(8, uint64(17*burst+3))})
		for i := 0; i < 10; i++ {
			rows = append(rows, []bv.XBV{bv.KU(1, 0), bv.KU(1, 0), bv.KU(8, uint64(13*i+1))})
		}
	}
	cs := sim.NewCycleSim(gtSys, sim.KeepX, 0)
	tr := sim.RecordTrace(cs, ins, outs, rows)
	fmt.Printf("testbench length: %d cycles\n", tr.Len())

	buggyMod, err := verilog.ParseModule(buggy)
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, basic bool) *core.Result {
		res := core.RepairCtx(context.Background(), verilog.CloneModule(buggyMod), tr, core.Options{
			Policy:  sim.Randomize,
			Seed:    1,
			Timeout: 90 * time.Second,
			Basic:   basic,
		})
		fmt.Printf("%-22s status=%-15s time=%-10s changes=%d",
			label, res.Status, res.Duration.Round(time.Millisecond), res.Changes)
		if res.Status == core.StatusRepaired {
			fmt.Printf("  window=[-%d..+%d]", res.Window[0], res.Window[1])
		}
		fmt.Println()
		return res
	}

	fmt.Println("\n--- basic synthesizer (full unrolling, §4.3) ---")
	run("basic:", true)

	fmt.Println("\n--- adaptive windowing (§4.4) ---")
	res := run("windowed:", false)
	if res.Status == core.StatusRepaired {
		fmt.Println("\nrepair diff:")
		fmt.Print(eval.DiffLines(verilog.Print(buggyMod), verilog.Print(res.Repaired)))
	}
}
